#!/usr/bin/env python3
"""Repository benchmark: wall-time cost of simulating fixed worlds.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the simulator and the benchmark from source (Release) under
.bench_build/perfbench, runs the crowd-builder equivalence test, then
measures the workload for about S seconds. Every measurement is a fresh
process that builds, starts and runs one seeded world, so one world is
alive at a time. The serial arm runs it with threads=1, the parallel arm
with 2 engine workers. Every run must report the same outcome digest as
the first. A serial run is timed in stretches with a fixed calibration
pass between them, and its run time is reported at a reference host
speed.

--trace 0 prints the end-to-end metrics (medians over the serial runs;
the parallel arm runs once, for the outcome check); --trace 1 gives
every arm, including a third one of traced 2-thread runs, an equal
share of the time and prints the per-layer metrics. The last stdout
line is one JSON object with keys correct, attempted, failed and
metrics. See perfbench/NOTES.md.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
from collections import namedtuple
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("city_static", "crowd_discovery")
SERIAL_THREADS = 1
PARALLEL_THREADS = 2  # See NOTES.md: a 4-worker arm measures the host scheduler.
MIN_RUNS_PER_ARM = 2  # Traced counts must repeat between two runs.
# Stretches a serial run is split into, each between two calibration
# passes (calibrate.hpp); 15 simulated seconds each.
SERIAL_CHUNKS = 20
# A child process may take this much longer than --seconds before it is
# counted as failed; crowd_discovery's set-up alone is about 4 s.
CHILD_MARGIN_S = 60.0

# One kind of measured process: engine worker threads, whether it is
# traced, how many times it runs at least, whether it keeps running
# while --seconds allows, and how many calibrated stretches it is timed
# in (0: the run is one call to sim::run).
Arm = namedtuple("Arm", "threads traced min_runs repeats chunks")


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configures and builds the benchmark (incrementally after the first
    run); exits 1 on failure."""
    BUILD.mkdir(parents=True, exist_ok=True)
    build_log = BUILD / "build.log"
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "-S", str(HERE), "-B", str(BUILD),
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", str(BUILD), "-j", jobs]]
    with open(build_log, "w") as out:
        for step in steps:
            if subprocess.run(step, stdout=out, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                log(build_log.read_text()[-4000:])
                log("error: benchmark build failed: " + " ".join(step))
                sys.exit(1)


def source_digest():
    """SHA-256 over the simulator and benchmark sources, for provenance
    when the checkout is not a git repository."""
    h = hashlib.sha256()
    for top in (ROOT / "src", HERE):
        for path in sorted(p for p in top.rglob("*") if p.is_file()):
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def git_sha():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def run_world(args, arm, trace_dir=None):
    """One fresh process: build, start and run one world. Returns its
    JSON report, or None (reason on stderr) if it failed."""
    cmd = [str(BUILD / "perfbench_run"), "--workload", args.workload,
           "--seed", str(args.seed), "--threads", str(arm.threads)]
    if arm.chunks:
        cmd += ["--chunks", str(arm.chunks)]
    if trace_dir is not None:
        cmd += ["--trace-dir", str(trace_dir)]
    try:
        out = subprocess.run(cmd, capture_output=True, text=True,
                             timeout=args.seconds + CHILD_MARGIN_S)
    except subprocess.TimeoutExpired:
        log(f"error: {' '.join(cmd)} timed out")
        return None
    if out.returncode != 0:
        log(out.stderr.strip())
        log(f"error: {' '.join(cmd)} exited {out.returncode}")
        return None
    return json.loads(out.stdout.strip().splitlines()[-1])


def crowd_equivalence_ok(args):
    """Runs the crowd-builder equivalence test (a few small worlds)."""
    try:
        out = subprocess.run([str(BUILD / "perfbench_crowd_equiv")],
                             capture_output=True, text=True,
                             timeout=args.seconds + CHILD_MARGIN_S)
    except subprocess.TimeoutExpired:
        log("error: crowd builder equivalence test timed out")
        return False
    if out.returncode != 0:
        log(out.stderr.strip())
        log("error: crowd builder equivalence test failed")
        return False
    return True


def outcome_ok(run, reference):
    """Every run of one seed must report the reference outcome digest,
    and the world must have delivered heartbeats."""
    if run["outcome"] != reference:
        log("error: outcome differs from the first run of this seed: "
            + json.dumps({"first": reference, "this": run["outcome"]}))
        return False
    if reference["heartbeats_delivered"] == 0:
        log("error: no heartbeat was delivered")
        return False
    return True


def measure(args, arms, trace_dir):
    """Runs every arm its minimum number of times, then fresh processes
    of the repeating arms until one more would overrun --seconds. Those
    share the time equally: the next process is always of the arm that
    has spent the least so far (so the arms alternate while their runs
    take similar time). Returns the reports by arm and the number of
    runs attempted and failed."""
    runs = {arm: [] for arm in arms}
    repeating = [arm for arm in arms if arms[arm].repeats]
    tries = dict.fromkeys(arms, 0)
    spent = dict.fromkeys(arms, 0.0)
    last = dict.fromkeys(arms, 0.0)
    reference = None
    attempted = failed = 0
    start = time.monotonic()
    while True:
        short = [a for a in arms if tries[a] < arms[a].min_runs]
        arm = min(short or repeating, key=lambda a: spent[a])
        began = time.monotonic()
        run = run_world(args, arms[arm],
                        trace_dir if arms[arm].traced else None)
        last[arm] = time.monotonic() - began
        spent[arm] += last[arm]
        tries[arm] += 1
        attempted += 1
        if run is None:
            failed += 1
        else:
            log(f"{arm}: setup {run['setup_s']:.3f} s run {run['run_s']:.3f} s"
                + (f" ({run['run_ref_s']:.3f} s at reference speed)"
                   if "run_ref_s" in run else ""))
            reference = reference or run["outcome"]
            if not outcome_ok(run, reference):
                failed += 1
            runs[arm].append(run)
        upcoming = min(repeating, key=lambda a: spent[a])
        if (all(tries[a] >= arms[a].min_runs for a in arms) and
                time.monotonic() - start + last[upcoming] > args.seconds):
            break
    return runs, attempted, failed


def ratio(num, den):
    return num / den if den else 0.0


def end_to_end(runs):
    serial = runs["serial"]
    parallel = runs["parallel"]
    first = serial[0]
    phone_hours = first["phones"] * first["duration_s"] / 3600.0
    return {
        "setup_s": (median([r["setup_s"] for r in serial + parallel]), "s"),
        "run_ms_per_phone_hour_serial": (
            median([r["run_ref_s"] for r in serial]) * 1e3 / phone_hours,
            "ms/phone-hour"),
        "peak_rss_kb_per_phone": (
            median([r["peak_rss_kb"] for r in serial]) / first["phones"],
            "KiB/phone"),
    }


def per_layer(runs):
    serial = runs["serial"]
    parallel = runs["parallel"]
    traced = runs["traced"]
    t = traced[0]
    reg = t["registry"]
    phones = t["phones"]
    sim_hours = t["duration_s"] / 3600.0
    delivered = t["outcome"]["heartbeats_delivered"]

    def med(key, runs=traced):
        return median([r[key] for r in runs])

    def span(name):
        return median([r["spans"][name] for r in traced])

    def prof(key):
        return median([r["profile"][key] for r in traced])

    traced_run_s = med("run_s")
    untraced_run_s = med("run_s", parallel)
    phone_hours = phones * sim_hours
    return {
        "scenario.layout_s": (span("scenario.layout"), "s"),
        "scenario.add_phone_s": (span("scenario.add_phone"), "s"),
        "scenario.add_agent_s": (span("scenario.add_agent"), "s"),
        "scenario.start_s": (span("scenario.start"), "s"),
        "scenario.build_city_s": (span("scenario.build_city"), "s"),
        "metrics.series_per_phone": (t["registry_series"] / phones,
                                     "series/phone"),
        "arena.reserved_kb_per_phone": (
            t["arena_reserved_bytes"] / 1024.0 / phones, "KiB/phone"),
        "rss.setup_kb_per_phone": (med("rss_setup_kb", serial) / phones,
                                   "KiB/phone"),
        "sim.kernels": (t["kernels"], "count"),
        "sim.pending_after_setup": (t["pending_after_setup"], "count"),
        "sim.events_per_heartbeat": (
            ratio(t["outcome"]["sim_events"], delivered), "events/heartbeat"),
        "sim.serial_ns_per_event": (
            med("run_ref_s", serial) * 1e9 / t["outcome"]["sim_events"],
            "ns"),
        "sim.cross_posts_per_heartbeat": (
            ratio(t["cross_posted"], delivered), "posts/heartbeat"),
        "engine.run_ms_per_phone_hour_2threads": (
            untraced_run_s * 1e3 / phone_hours, "ms/phone-hour"),
        "engine.windows_per_sim_hour": (
            t["profile"]["windows"] / sim_hours, "windows/sim-h"),
        "engine.window_utilization": (prof("window_utilization"), "ratio"),
        "engine.execute_s": (prof("execute_s"), "s"),
        "engine.drain_s": (prof("drain_s"), "s"),
        "engine.barrier_wait_s": (prof("barrier_wait_s"), "s"),
        "engine.barrier_wait_p99_us": (prof("barrier_wait_p99_us"), "us"),
        "engine.serial_tail_s": (prof("serial_tail_s"), "s"),
        "engine.load_imbalance": (prof("load_imbalance"), "ratio"),
        "engine.trace_overhead_pct": (
            (traced_run_s / untraced_run_s - 1.0) * 100.0, "%"),
        "d2d.discovery_scans_per_phone_hour": (
            reg["d2d.discovery_scans"] / (phones * sim_hours),
            "scans/phone-h"),
        "d2d.scan_us": (
            median([r["scan_s"] / r["scans"] * 1e6 if r["scans"] else 0.0
                    for r in traced]), "us"),
        "d2d.links_established": (reg["d2d.links_established"], "count"),
        "d2d.links_broken": (reg["d2d.links_broken"], "count"),
        "d2d.sends_per_heartbeat": (ratio(reg["d2d.sends"], delivered),
                                    "sends/heartbeat"),
        "core.d2d_forward_share": (
            ratio(reg["relay.forwarded_received"], reg["ue.heartbeats"]),
            "ratio"),
        "core.match_ratio": (ratio(reg["ue.matches"], reg["ue.discoveries"]),
                             "ratio"),
        "core.mean_bundle_size": (
            ratio(reg["scheduler.bundle_size_sum"], reg["scheduler.bundles"]),
            "messages"),
        "core.fallbacks": (reg["ue.fallback_cellular"], "count"),
        "core.feedback_timeouts": (reg["feedback.timed_out"], "count"),
        "core.reassessments": (reg["ue.reassessments"], "count"),
        "radio.l3_per_heartbeat": (ratio(reg["signaling.l3_total"], delivered),
                                   "msgs/heartbeat"),
        "radio.rrc_transitions_per_heartbeat": (
            ratio(reg["rrc.transitions"], delivered), "1/heartbeat"),
        "net.heartbeats_delivered": (reg["server.delivered"], "count"),
        "net.on_time_share": (ratio(reg["server.on_time"],
                                    reg["server.delivered"]), "ratio"),
        "energy.radio_uah_per_phone": (reg["energy.radio_uah"] / phones,
                                       "uAh/phone"),
    }


# The arms whose runs each metric is computed from; every other metric
# comes from the traced arm alone.
METRIC_ARMS = {
    "setup_s": ("serial", "parallel"),
    "run_ms_per_phone_hour_serial": ("serial",),
    "engine.run_ms_per_phone_hour_2threads": ("parallel",),
    "peak_rss_kb_per_phone": ("serial",),
    "rss.setup_kb_per_phone": ("serial",),
    "sim.serial_ns_per_event": ("serial", "traced"),
    "engine.trace_overhead_pct": ("parallel", "traced"),
}


def print_metrics(metrics, runs):
    """One line per metric: name, value, unit and the number of runs of
    each arm it was computed from."""
    for name, (value, unit) in metrics.items():
        arms = METRIC_ARMS.get(name, ("traced",))
        counts = " ".join(f"{arm}={len(runs[arm])}" for arm in arms)
        print(f"metric: {name} = {value:.6g} {unit} (runs: {counts})")


def traced_counts_stable(traced):
    """Deterministic per-layer inputs must repeat exactly between traced
    runs of one seed; fewer than MIN_RUNS_PER_ARM runs is a failure."""
    if len(traced) < MIN_RUNS_PER_ARM:
        log(f"error: {len(traced)} traced run(s); the per-layer counts "
            f"need {MIN_RUNS_PER_ARM} to be compared")
        return False
    keys = ("registry", "registry_series", "pending_after_setup",
            "arena_reserved_bytes", "cross_posted", "scans", "scan_peers")
    first = {k: traced[0][k] for k in keys}
    for run in traced[1:]:
        if {k: run[k] for k in keys} != first:
            log("error: traced runs of one seed disagree on per-layer counts")
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    build()
    equivalence_ok = crowd_equivalence_ok(args)

    trace_dir = None
    if args.trace:
        trace_dir = BUILD / "traces"
        trace_dir.mkdir(exist_ok=True)

    # Untraced 2-thread wall time is too unsteady on a shared host to be
    # an end-to-end metric (NOTES.md), so without tracing the parallel arm
    # runs once, for the outcome check.
    arms = {"serial": Arm(SERIAL_THREADS, False, MIN_RUNS_PER_ARM, True,
                          SERIAL_CHUNKS),
            "parallel": Arm(PARALLEL_THREADS, False, 1, False, 0)}
    if args.trace:
        arms["parallel"] = Arm(PARALLEL_THREADS, False, MIN_RUNS_PER_ARM,
                               True, 0)
        arms["traced"] = Arm(PARALLEL_THREADS, True, MIN_RUNS_PER_ARM, True,
                             0)
    runs, attempted, failed = measure(args, arms, trace_dir)
    if any(not r for r in runs.values()):
        log("error: an arm has no completed run")
        sys.exit(1)

    first = runs["serial"][0]
    print("provenance: " + json.dumps({
        "workload": args.workload, "seed": args.seed,
        "git_sha": git_sha(), "source_sha256": source_digest(),
        "build_type": "Release", "nproc": os.cpu_count(),
        "threads_per_arm": {arm: a.threads for arm, a in arms.items()},
        "phones": first["phones"], "simulated_s": first["duration_s"],
        "kernels": first["kernels"],
        "runs_per_arm": {arm: len(r) for arm, r in runs.items()}}))
    print("outcome: " + json.dumps(first["outcome"], separators=(",", ":")))
    serial = runs["serial"]
    print("host: " + json.dumps({
        "serial_run_s_median": median([r["run_s"] for r in serial]),
        "serial_run_ref_s_median": median([r["run_ref_s"] for r in serial]),
        "calibration_pass_s_median":
            median([r["calibration_pass_s"] for r in serial]),
        "calibration_reference_s": serial[0]["calibration_reference_s"]}))

    correct = equivalence_ok and failed == 0
    if args.trace:
        correct = correct and traced_counts_stable(runs["traced"])
        metrics = per_layer(runs)
    else:
        metrics = end_to_end(runs)
    print_metrics(metrics, runs)
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))


if __name__ == "__main__":
    main()

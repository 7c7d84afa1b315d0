// The unified run engine: one entrypoint that executes a Simulator to a
// target time, on the caller's thread or on worker threads, behind a
// single RunOptions knob. Every driver — d2dhb_sim, the benches,
// SweepRunner scenarios, Simulator::run_until itself — goes through
// sim::run().
//
// Kernels are independent (sim/simulator.hpp): no event ever schedules
// onto another kernel, so each kernel runs straight through to `until`
// on its own. With one worker the kernels run one after another inline
// on the caller's thread; with `workers = min(threads, kernel count)`
// plain threads each own the kernels `k % workers == w` and the caller
// joins them. Either way each kernel executes its own events in
// (when, seq) order — the order the global merge (Simulator::step)
// would give them — so every result is byte-identical for any thread
// count.
//
// Rounds: a run is one round — every kernel advanced to the target,
// then joined — unless audits are armed (RunOptions::audit or a
// non-zero Simulator::audit_interval). Then the same loop advances
// the kernels in rounds of kAuditRound simulated time (skipping idle
// stretches) and runs the full Simulator::audit() after each one,
// with every worker joined.
#pragma once

#include <cstdint>
#include <vector>

#include "common/units.hpp"
#include "sim/profiler.hpp"
#include "sim/simulator.hpp"

namespace d2dhb::sim {

/// Simulated span of one audited round (see above).
inline constexpr Duration kAuditRound = seconds(1);

/// Execution knobs for sim::run(). Defaults run every kernel inline on
/// the caller's thread.
struct RunOptions {
  /// Worker threads. 1 (the default) runs the kernels inline; the
  /// effective pool size is min(threads, kernel count). Never changes
  /// results (the byte-identical contract).
  std::size_t threads{1};
  /// Advance in audited rounds even when the simulator's periodic
  /// audit interval is off.
  bool audit{false};
  /// Record runtime spans (round/execute/barrier-wait) and fill
  /// RunStats::profile + the registry's `runtime/` namespace. Purely
  /// observational: a profiled run's deterministic metrics export is
  /// byte-identical to an unprofiled one (the profile-equivalence gate
  /// holds the engine to that).
  bool profile{false};
  /// Caller-owned span recorder; implies `profile`. Pass one to keep
  /// the merged spans after the run (Chrome trace export,
  /// tools/trace_report) — with only `profile` set the engine uses an
  /// internal recorder that lives for the duration of the call.
  Profiler* profiler{nullptr};
};

/// What one engine run did. Event counters are cumulative over the
/// simulator's lifetime.
struct RunStats {
  /// Rounds run by this call (1 unless audits were armed).
  std::uint64_t windows{0};
  /// Worker threads actually used (1 = inline on the caller's thread).
  std::size_t workers{1};
  /// Cross-kernel traffic: always 0, 0, INT64_MAX and all-zero per
  /// shard, because no event crosses kernels. Kept only for the repo
  /// benchmark's reader; drop them with the next benchmark change.
  std::uint64_t cross_posted{0};
  std::uint64_t cross_delivered{0};
  std::int64_t min_slack_us{INT64_MAX};
  std::vector<std::uint64_t> shard_mailbox_delivered;
  /// Process peak RSS (getrusage) when the run returned, in bytes —
  /// monotone over the process lifetime, so it measures the largest
  /// world this process has driven, not this run in isolation.
  std::uint64_t peak_rss_bytes{0};
  /// Per-shard executed events (cumulative). Deterministic —
  /// byte-identical across thread counts — so load imbalance stays
  /// visible with profiling off.
  std::vector<std::uint64_t> shard_events_executed;
  /// Runtime profile (host wall-clock; enabled=false unless
  /// RunOptions::profile/profiler asked for it).
  ProfileSummary profile;
};

/// Runs `sim` to `until` (events at exactly `until` included) under
/// `options`, leaving the world clock and every kernel clock at
/// `until`. Rethrows the first exception a kernel raised (by kernel
/// order within a worker, lowest worker first) after every worker has
/// stopped.
RunStats run(Simulator& sim, TimePoint until, const RunOptions& options = {});

}  // namespace d2dhb::sim

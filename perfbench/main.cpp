// One benchmark process = one world: build it, run it once with the
// requested worker count, and print what was measured as one JSON line.
//
//   perfbench_run --workload NAME --seed N --threads T [--chunks K]
//                 [--trace-dir DIR]
//
// With --chunks the run is split into K equal stretches of simulated
// time, and a calibration pass (calibrate.hpp) is timed before the first
// stretch and after each one. Every stretch's wall time is scaled by the
// reference pass time over the mean of the two passes around it, which
// gives `run_ref_s`, the run time at the reference host speed.
//
// Without --trace-dir the run is untraced: the only clock reads are the
// set-up and run totals, and the stretches and passes. With it the
// engine profiler is attached, the benchmark records spans around its
// calls into the scenario layer, sim::run, the registry and the medium,
// and after the run it reads the registry and times one discovery scan
// per UE. The spans are written to DIR as a Chrome trace when the
// process ends.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>
#include <unistd.h>

#include "calibrate.hpp"
#include "common/memory.hpp"
#include "metrics/registry.hpp"
#include "sim/profiler.hpp"
#include "world.hpp"

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Resident set size now, in KiB (/proc/self/statm); 0 if unreadable.
std::uint64_t current_rss_kb() {
  std::ifstream statm("/proc/self/statm");
  std::uint64_t size = 0;
  std::uint64_t resident = 0;
  if (!(statm >> size >> resident)) return 0;
  return resident * static_cast<std::uint64_t>(sysconf(_SC_PAGESIZE)) / 1024;
}

/// Minimal flat JSON object writer (numbers, arrays of counts, nested
/// objects); keys are fixed identifiers, so no escaping is needed.
class JsonObject {
 public:
  JsonObject() { out_ << std::setprecision(17) << '{'; }
  template <typename T>
  JsonObject& add(std::string_view key, const T& value) {
    sep() << '"' << key << "\": " << value;
    return *this;
  }
  JsonObject& add_string(std::string_view key, std::string_view value) {
    sep() << '"' << key << "\": \"" << value << '"';
    return *this;
  }
  JsonObject& add_counts(std::string_view key,
                         const std::vector<std::uint64_t>& values) {
    sep() << '"' << key << "\": [";
    for (std::size_t i = 0; i < values.size(); ++i) {
      out_ << (i == 0 ? "" : ", ") << values[i];
    }
    out_ << ']';
    return *this;
  }
  JsonObject& add_object(std::string_view key, const JsonObject& inner) {
    sep() << '"' << key << "\": " << inner.str();
    return *this;
  }
  std::string str() const { return out_.str() + '}'; }

 private:
  std::ostream& sep() {
    if (!first_) out_ << ", ";
    first_ = false;
    return out_;
  }
  std::ostringstream out_;
  bool first_{true};
};

int usage() {
  std::cerr << "usage: perfbench_run --workload NAME --seed N --threads T "
               "[--chunks K] [--trace-dir DIR]\n";
  return 2;
}

/// Registry totals the per-layer metrics are computed from (traced
/// runs only: a snapshot of a city-sized registry is itself costly).
JsonObject registry_totals(const d2dhb::metrics::Snapshot& snap) {
  JsonObject totals;
  for (const char* name :
       {"d2d.discovery_scans", "d2d.links_established", "d2d.links_broken",
        "d2d.sends", "ue.discoveries", "ue.matches", "ue.heartbeats",
        "ue.reassessments", "ue.fallback_cellular", "relay.own_heartbeats",
        "relay.forwarded_received", "feedback.timed_out", "rrc.transitions",
        "server.delivered", "server.on_time"}) {
    totals.add(name, snap.counter_total(name));
  }
  totals.add("signaling.l3_total", snap.gauge_total("signaling.l3_total"));
  totals.add("energy.radio_uah", snap.gauge_total("energy.radio_uah"));
  std::uint64_t bundles = 0;
  double bundle_sum = 0.0;
  for (const auto& entry : snap.entries) {
    if (entry.name == "scheduler.bundle_size") {
      bundles += entry.histogram.count;
      bundle_sum += entry.histogram.sum;
    }
  }
  totals.add("scheduler.bundles", bundles);
  totals.add("scheduler.bundle_size_sum", bundle_sum);
  return totals;
}

JsonObject profile_fields(const d2dhb::sim::ProfileSummary& p) {
  JsonObject o;
  o.add("workers", p.workers)
      .add("windows", p.windows)
      .add("wall_s", static_cast<double>(p.wall_ns) * 1e-9)
      .add("execute_s", static_cast<double>(p.execute_ns) * 1e-9)
      .add("drain_s", static_cast<double>(p.drain_ns) * 1e-9)
      .add("barrier_wait_s", static_cast<double>(p.barrier_wait_ns) * 1e-9)
      .add("barrier_wait_p99_us", p.barrier_wait_p99_us)
      .add("serial_tail_s", static_cast<double>(p.serial_tail_ns) * 1e-9)
      .add("load_imbalance", p.load_imbalance)
      .add("window_utilization", p.window_utilization);
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  const Clock::time_point process_start = Clock::now();
  std::string workload_name;
  std::uint64_t seed = 0;
  std::size_t threads = 0;
  std::size_t chunks = 0;
  std::string trace_dir;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      workload_name = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--threads") {
      threads = std::strtoull(value, nullptr, 10);
    } else if (flag == "--chunks") {
      chunks = std::strtoull(value, nullptr, 10);
    } else if (flag == "--trace-dir") {
      trace_dir = value;
    } else {
      return usage();
    }
  }
  if (argc % 2 == 0 || workload_name.empty() || threads == 0) return usage();

  try {
    const perfbench::Workload workload =
        perfbench::make_workload(workload_name, seed);
    const bool traced = !trace_dir.empty();
    perfbench::SpanLog spans(traced);
    d2dhb::sim::Profiler profiler;

    perfbench::BuiltWorld built;
    {
      perfbench::Span span(spans, "setup");
      built = perfbench::build_world(workload, spans);
    }
    d2dhb::scenario::Scenario& world = *built.world;
    const double setup_s = seconds_since(process_start);

    JsonObject result;
    result.add_string("workload", workload.name)
        .add("seed", seed)
        .add("threads", threads)
        .add("phones", workload.phones())
        .add("duration_s", workload.duration_s())
        .add("setup_s", setup_s)
        .add("rss_setup_kb", current_rss_kb())
        .add("kernels", world.sim().shard_count())
        .add("pending_after_setup", world.sim().pending_events())
        .add("arena_reserved_bytes", world.arena_stats().bytes_reserved);
    {
      perfbench::Span span(spans, "metrics.registry_size");
      result.add("registry_series", world.metrics().size());
    }

    const d2dhb::TimePoint until =
        d2dhb::TimePoint{} + d2dhb::seconds(workload.duration_s());
    const d2dhb::sim::RunOptions options =
        perfbench::run_options(threads, traced ? &profiler : nullptr);
    d2dhb::sim::RunStats stats;
    if (chunks == 0) {
      const Clock::time_point run_start = Clock::now();
      {
        perfbench::Span span(spans, "sim.run");
        stats = d2dhb::sim::run(world.sim(), until, options);
      }
      result.add("run_s", seconds_since(run_start))
          .add("peak_rss_kb", d2dhb::peak_rss_bytes() / 1024);
    } else {
      // The calibration table is resident from here on; it is taken back
      // out of the peak, which may also have been reached during set-up.
      const std::uint64_t setup_peak_kb = d2dhb::peak_rss_bytes() / 1024;
      const std::uint64_t rss_before_kb = current_rss_kb();
      perfbench::Calibration calibration;
      const std::uint64_t calibration_kb = current_rss_kb() - rss_before_kb;
      const d2dhb::Duration span_total = until - d2dhb::TimePoint{};
      std::vector<double> passes{calibration.pass_s()};
      double run_s = 0.0;
      double run_ref_s = 0.0;
      for (std::size_t k = 1; k <= chunks; ++k) {
        const d2dhb::TimePoint stop =
            k == chunks ? until
                        : d2dhb::TimePoint{} +
                              span_total * static_cast<std::int64_t>(k) /
                                  static_cast<std::int64_t>(chunks);
        const Clock::time_point chunk_start = Clock::now();
        {
          perfbench::Span span(spans, "sim.run");
          stats = d2dhb::sim::run(world.sim(), stop, options);
        }
        const double chunk_s = seconds_since(chunk_start);
        passes.push_back(calibration.pass_s());
        run_s += chunk_s;
        run_ref_s += chunk_s * perfbench::Calibration::kReferenceS * 2.0 /
                     (passes[k - 1] + passes[k]);
      }
      std::sort(passes.begin(), passes.end());
      result.add("run_s", run_s)
          .add("run_ref_s", run_ref_s)
          .add("calibration_pass_s", passes[passes.size() / 2])
          .add("calibration_reference_s",
               perfbench::Calibration::kReferenceS)
          .add("calibration_checksum", calibration.checksum())
          .add("peak_rss_kb",
               std::max(setup_peak_kb,
                        d2dhb::peak_rss_bytes() / 1024 - calibration_kb));
    }
    result.add("cross_posted", stats.cross_posted);

    const perfbench::Outcome outcome = perfbench::collect_outcome(world, stats);
    JsonObject digest;
    digest.add("sim_events", outcome.sim_events)
        .add("total_l3", outcome.total_l3)
        .add("heartbeats_delivered", outcome.heartbeats_delivered)
        .add("forwarded_via_d2d", outcome.forwarded_via_d2d)
        .add("fallbacks", outcome.fallbacks)
        .add_counts("shard_events_executed", outcome.shard_events_executed);
    result.add_object("outcome", digest);

    if (traced) {
      d2dhb::metrics::Snapshot snap;
      {
        perfbench::Span span(spans, "metrics.snapshot");
        snap = world.metrics_snapshot();
      }
      result.add_object("registry", registry_totals(snap));
      // Every outcome has been read: scanning now draws from the
      // medium's RNG lanes without affecting anything reported.
      std::uint64_t peers_found = 0;
      for (auto* ue : world.ues()) {
        perfbench::Span span(spans, "d2d.scan_from");
        peers_found += world.medium().scan_from(ue->phone().id()).size();
      }
      result.add("scans", world.ues().size())
          .add("scan_peers", peers_found)
          .add("scan_s", spans.total_s("d2d.scan_from"))
          .add_object("profile", profile_fields(stats.profile));
      JsonObject phases;
      for (const char* name :
           {"scenario.layout", "scenario.add_phone",
            "scenario.add_agent", "scenario.start", "scenario.build_city"}) {
        phases.add(name, spans.total_s(name));
      }
      result.add_object("spans", phases);
      const std::string path = trace_dir + "/" + workload.name + "-seed" +
                               std::to_string(seed) + "-t" +
                               std::to_string(threads) + ".json";
      std::ofstream trace(path);
      spans.write_chrome_trace(trace);
      if (!trace) {
        std::cerr << "error: cannot write " << path << '\n';
        return 1;
      }
    }
    std::cout << result.str() << std::endl;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
  return 0;
}

// Parallel-executor scaling: the same seeded crowd — same geometric
// kernels — driven by 1, 2, and 4 worker threads, plus a 10k-phone
// "medium" arm in the crowd_scale shape. Results are byte-identical by
// construction (the shard-equivalence gate holds the executor to
// that); what varies is the wall clock, and how the work spreads over
// the kernels. Writes BENCH_shard_scaling.json like perf_kernel writes
// its kernel report.
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/table.hpp"
#include "scenario/crowd.hpp"
#include "scenario/crowd_cli.hpp"
#include "sim/event_kernel.hpp"
#include "sim/profiler.hpp"

namespace {

using namespace d2dhb;
using namespace d2dhb::scenario;

struct ThreadArm {
  std::string arm;  ///< "medium" (the headline) or "smoke" (toy run).
  std::size_t threads{0};
  std::size_t kernels{0};
  double wall_s{0.0};
  double events_per_sec{0.0};
  CrowdMetrics metrics;
};

/// The geometric partition run_d2d_crowd derives from the area — one
/// kernel per 120 m strip (mirrors scenario/crowd.cpp so the report
/// can state the kernel count alongside the thread count).
std::size_t kernels_for(const CrowdConfig& config) {
  const auto strips = static_cast<std::size_t>(config.area_m / 120.0);
  return std::max<std::size_t>(
      1, std::min<std::size_t>(strips, sim::EventKernel::kMaxShards));
}

ThreadArm run_arm(const std::string& arm, const CrowdConfig& base,
                  std::size_t threads) {
  CrowdConfig config = base;
  config.threads = threads;
  const auto t0 = std::chrono::steady_clock::now();
  CrowdMetrics m = run_d2d_crowd(config);
  const auto t1 = std::chrono::steady_clock::now();
  const double s = std::chrono::duration<double>(t1 - t0).count();
  ThreadArm r;
  r.arm = arm;
  r.threads = threads;
  r.kernels = kernels_for(config);
  r.wall_s = s;
  r.events_per_sec =
      s > 0.0 ? static_cast<double>(m.sim_events) / s : 0.0;
  r.metrics = std::move(m);
  return r;
}

/// The crowd_scale bench's scale_point shape (bench/crowd_scale.cpp),
/// reused so the 10k-phone arm here and the scaling curve there
/// describe the same family of worlds.
CrowdConfig medium_point(std::size_t phones) {
  CrowdConfig config;
  config.phones = phones;
  config.relay_fraction = 0.2;
  config.area_m = 50.0 + static_cast<double>(phones);
  config.clusters = 1 + phones / 24;
  config.cluster_stddev_m = 7.0;
  config.duration_s = 900.0;
  config.seed = 101;
  return config;
}

void emit_counter_array(std::ostream& out, const char* key,
                        const std::vector<std::uint64_t>& values) {
  out << ", \"" << key << "\": [";
  for (std::size_t i = 0; i < values.size(); ++i) {
    out << (i == 0 ? "" : ", ") << values[i];
  }
  out << "]";
}

void emit_arm_json(std::ostream& out, const ThreadArm& r, bool last) {
  out << "    {\"arm\": \"" << r.arm << "\", \"threads\": " << r.threads
      << ", \"kernels\": " << r.kernels
      << ", \"phones\": " << r.metrics.phones
      << ", \"sim_events\": " << r.metrics.sim_events
      << ", \"wall_s\": " << r.wall_s
      << ", \"events_per_sec\": " << r.events_per_sec;
  // Deterministic per-kernel totals (same numbers at every thread
  // count) — the executor-side view of where the work landed.
  emit_counter_array(out, "shard_events_executed",
                     r.metrics.shard_events_executed);
  // Process-monotone (getrusage): the largest world so far, which
  // is why the headline arms run before the toy ones.
  out << ", \"peak_rss_bytes\": " << r.metrics.peak_rss_bytes
      << "}" << (last ? "" : ",") << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  // --smoke shrinks both arms for the CI artifact job; the usual crowd
  // knobs (--phones, --duration, --seed, ...) override the base point.
  // --no-medium skips the 10k-phone arm entirely (quick local runs).
  const bool smoke = bench::has_flag(argc, argv, "--smoke");
  const bool medium_enabled = !bench::has_flag(argc, argv, "--no-medium");

  // Base arm: a crowd wide enough for several geometric strips, so the
  // worker threads have kernels to spread across.
  CrowdConfig config;
  config.phones = smoke ? 32u : 96u;
  config.relay_fraction = 0.2;
  config.area_m = smoke ? 240.0 : 480.0;
  config.clusters = smoke ? 4u : 8u;
  config.duration_s = smoke ? 600.0 : 3600.0;
  config.mobile = true;
  config.reassess_interval_s = 60.0;
  config.seed = 101;
  CliFlags flags{argc, argv};
  if (const std::string error = apply_crowd_flags(flags, config);
      !error.empty()) {
    std::cerr << "error: " << error << '\n';
    return 2;
  }
  // One seeded run per thread count; D2DHB_SEEDS overrides the base
  // seed like every other bench (first seed wins, malformed exits 2).
  config.seed = bench::bench_seeds(config.seed, 1).front();

  bench::print_header(
      "Shard scaling: one crowd, 1/2/4 worker threads over its kernels",
      "n/a (substrate bench; results byte-identical at every thread "
      "count)");

  // Headline first: the 10k-phone medium arm (crowd_scale's scale_point
  // shape), 1 vs 4 threads — the events/s ratio between these two rows
  // is the scaling headline, so it leads the arms array (and, running
  // first, owns the process-monotone peak-RSS reading). Smoke keeps the
  // shape but shrinks it so the CI artifact still carries a medium
  // sample.
  // --trace-out PATH records the 4-thread medium arm's engine spans and
  // writes the Chrome trace after the table (trace_report / Perfetto).
  const std::string trace_out =
      bench::flag_value(argc, argv, "--trace-out");
  sim::Profiler profiler;

  std::vector<ThreadArm> results;
  std::size_t medium_arms = 0;
  if (medium_enabled) {
    CrowdConfig medium = medium_point(smoke ? 1000u : 10000u);
    if (smoke) medium.duration_s = 300.0;
    for (const std::size_t threads : {1u, 4u}) {
      CrowdConfig arm = medium;
      if (threads == 4 && !trace_out.empty()) {
        arm.profile = true;
        arm.profiler = &profiler;
      }
      results.push_back(run_arm("medium", arm, threads));
      ++medium_arms;
    }
  }

  // The toy run: a few dozen phones, every thread count — quick local
  // sanity, labelled for what it is.
  for (const std::size_t threads : {1u, 2u, 4u}) {
    results.push_back(run_arm("smoke", config, threads));
  }

  bool identical = true;
  Table table{{"Arm", "Threads", "Kernels", "Events/sec", "Sim events",
               "Identical"}};
  const CrowdMetrics* reference = nullptr;
  std::string reference_arm;
  for (const ThreadArm& r : results) {
    if (r.arm != reference_arm) {
      reference = &r.metrics;
      reference_arm = r.arm;
    }
    const bool same =
        r.metrics.total_l3 == reference->total_l3 &&
        r.metrics.sim_events == reference->sim_events &&
        r.metrics.total_radio_uah == reference->total_radio_uah;
    identical = identical && same;
    table.add_row({r.arm, std::to_string(r.threads),
                   std::to_string(r.kernels),
                   Table::num(r.events_per_sec, 0),
                   std::to_string(r.metrics.sim_events),
                   same ? "yes" : "NO"});
  }
  bench::emit(table, "shard_scaling");
  if (!trace_out.empty()) {
    if (profiler.finished()) {
      if (profiler.write_chrome_trace_file(trace_out)) {
        std::cout << "(trace written to " << trace_out << ")\n";
      }
    } else {
      std::cerr << "warning: --trace-out records the 4-thread medium arm; "
                   "nothing to write under --no-medium\n";
    }
  }
  if (!identical) {
    std::cerr << "error: threaded runs diverged from their 1-thread "
                 "reference — the byte-identical contract is broken\n";
  }
  if (medium_arms >= 2) {
    const ThreadArm& m1 = results[0];
    const ThreadArm& m4 = results[medium_arms - 1];
    if (m1.events_per_sec > 0.0) {
      std::cout << "medium arm speedup (4 threads vs 1): "
                << Table::num(m4.events_per_sec / m1.events_per_sec, 2)
                << "x\n";
    }
  }

  std::string path = "BENCH_shard_scaling.json";
  if (const char* dir = std::getenv("D2DHB_CSV_DIR")) {
    if (*dir != '\0') path = std::string(dir) + "/" + path;
  }
  std::ofstream out(path);
  if (!out) {
    std::cerr << "warning: cannot write " << path << '\n';
  } else {
    out << "{\n"
        << "  \"workload\": \"crowd_shard_scaling\",\n"
        << "  \"headline_arm\": \""
        << (medium_arms > 0 ? "medium" : "smoke") << "\",\n"
        << "  \"smoke_phones\": " << config.phones << ",\n"
        << "  \"smoke_duration_s\": " << config.duration_s << ",\n"
        << "  \"results_identical\": " << (identical ? "true" : "false")
        << ",\n"
        << "  \"arms\": [\n";
    for (std::size_t i = 0; i < results.size(); ++i) {
      emit_arm_json(out, results[i], i + 1 == results.size());
    }
    out << "  ]\n"
        << "}\n";
    std::cout << "(json written to " << path << ")\n";
  }
  return identical ? 0 : 1;
}

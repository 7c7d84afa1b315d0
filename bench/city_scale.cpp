// City-scale throughput and memory: the arena-backed world at 100k,
// 250k, and 1M phones — events/sec, wall time split into build vs run,
// strip-arena and metrics-registry footprint, and process peak RSS per
// arm. Arms ascend by phone count so the getrusage peak-RSS reading
// after each arm is attributable to it (ru_maxrss is process-monotone).
// Writes BENCH_city_scale.json.
//
//   bench_city_scale [--smoke] [--threads T] [--duration S]
//                    [--heap-agents] [--max-rss-mb N]
//                    [--max-profile-overhead-pct P] [--trace-out PATH]
//
// --smoke shrinks the arms to CI size; --max-rss-mb N fails (exit 1)
// when the final peak RSS exceeds N MB — the CI memory-regression
// bound for the smoke leg (0 = unbounded, the default).
//
// After the ladder the bench re-runs one arm twice — profiler off and
// on — and reports the overhead as a percentage of the off run.
// --max-profile-overhead-pct P fails (exit 1) when that delta exceeds
// P% (smoke defaults to 3, full runs to unbounded); --trace-out PATH
// writes the on-arm's Chrome trace for trace_report / Perfetto.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/memory.hpp"
#include "common/table.hpp"
#include "scenario/city.hpp"
#include "scenario/scenario.hpp"
#include "sim/profiler.hpp"

namespace {

using namespace d2dhb;
using namespace d2dhb::scenario;

struct CityArm {
  std::size_t phones{0};
  std::size_t threads{0};
  double build_s{0.0};
  double run_s{0.0};
  double events_per_sec{0.0};
  /// MetricsRegistry::bytes_reserved() after the run, per phone.
  double registry_bytes_per_phone{0.0};
  CityMetrics metrics;
};

CityArm run_arm(const CityConfig& config) {
  using clock = std::chrono::steady_clock;
  CityArm arm;
  arm.phones = config.phones;
  arm.threads = config.threads;
  const auto t0 = clock::now();
  auto world = build_city(config);
  const auto t1 = clock::now();
  arm.metrics = run_city(*world, config);
  const auto t2 = clock::now();
  arm.registry_bytes_per_phone =
      static_cast<double>(world->metrics().bytes_reserved()) /
      static_cast<double>(config.phones);
  arm.build_s = std::chrono::duration<double>(t1 - t0).count();
  arm.run_s = std::chrono::duration<double>(t2 - t1).count();
  arm.events_per_sec =
      arm.run_s > 0.0
          ? static_cast<double>(arm.metrics.sim_events) / arm.run_s
          : 0.0;
  return arm;
}

/// The profiler on/off pair: one ladder arm re-run with spans disabled
/// and enabled, best-of-`samples` wall time each so scheduler noise
/// does not masquerade as span overhead.
struct OverheadPair {
  std::size_t phones{0};
  double run_s_off{0.0};
  double run_s_on{0.0};
  /// (on - off) / off, in percent; negative deltas report as measured.
  double overhead_pct{0.0};
};

OverheadPair run_overhead_pair(const CityConfig& base, std::size_t phones,
                               int samples, d2dhb::sim::Profiler* profiler) {
  OverheadPair pair;
  pair.phones = phones;
  pair.run_s_off = std::numeric_limits<double>::infinity();
  pair.run_s_on = std::numeric_limits<double>::infinity();
  CityConfig off = base;
  off.phones = phones;
  CityConfig on = off;
  on.profile = true;
  on.profiler = profiler;
  for (int i = 0; i < samples; ++i) {
    pair.run_s_off = std::min(pair.run_s_off, run_arm(off).run_s);
    // On-arm last so the caller-owned profiler keeps the final (best
    // measured) run's spans for --trace-out.
    pair.run_s_on = std::min(pair.run_s_on, run_arm(on).run_s);
  }
  if (pair.run_s_off > 0.0) {
    pair.overhead_pct =
        100.0 * (pair.run_s_on - pair.run_s_off) / pair.run_s_off;
  }
  return pair;
}

void emit_arm_json(std::ostream& out, const CityArm& a, bool last) {
  out << "    {\"phones\": " << a.phones << ", \"threads\": " << a.threads
      << ", \"strips\": " << a.metrics.strips
      << ", \"cells\": " << a.metrics.cells
      << ", \"relays\": " << a.metrics.relays
      << ", \"build_s\": " << a.build_s << ", \"run_s\": " << a.run_s
      << ", \"sim_events\": " << a.metrics.sim_events
      << ", \"events_per_sec\": " << a.events_per_sec
      << ", \"total_l3\": " << a.metrics.total_l3
      << ", \"heartbeats_delivered\": " << a.metrics.heartbeats_delivered
      << ", \"forwarded_via_d2d\": " << a.metrics.forwarded_via_d2d
      << ", \"arena_bytes_allocated\": " << a.metrics.arena_bytes_allocated
      << ", \"arena_bytes_reserved\": " << a.metrics.arena_bytes_reserved
      << ", \"arena_objects\": " << a.metrics.arena_objects
      << ", \"registry_bytes_per_phone\": " << a.registry_bytes_per_phone
      // getrusage peak — monotone, so ascending arms attribute it.
      << ", \"peak_rss_bytes\": " << a.metrics.peak_rss_bytes
      << "}" << (last ? "" : ",") << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = bench::has_flag(argc, argv, "--smoke");
  const auto threads = static_cast<std::size_t>(
      bench::flag_number(argc, argv, "--threads", 1));
  const double max_rss_mb =
      bench::flag_number(argc, argv, "--max-rss-mb", 0.0);
  const bool heap_agents = bench::has_flag(argc, argv, "--heap-agents");

  CityConfig base;
  base.threads = threads;
  base.heap_agents = heap_agents;
  // Smoke keeps the full preset's shape (multiple strips and cells)
  // at CI size; the real arms are the ISSUE's 100k/250k/1M ladder.
  base.duration_s = bench::flag_number(argc, argv, "--duration",
                                       smoke ? 120.0 : 300.0);
  const std::vector<std::size_t> ladder =
      smoke ? std::vector<std::size_t>{2000, 10000}
            : std::vector<std::size_t>{100000, 250000, 1000000};

  bench::print_header(
      "City scale: arena-backed crowd at city phone counts",
      "n/a (substrate bench; the paper's setting is operator-scale "
      "heartbeat traffic)");

  std::vector<CityArm> results;
  for (const std::size_t phones : ladder) {
    CityConfig config = base;
    config.phones = phones;
    results.push_back(run_arm(config));
    const CityArm& a = results.back();
    std::cout << "  " << phones << " phones: build "
              << Table::num(a.build_s, 1) << " s, run "
              << Table::num(a.run_s, 1) << " s, "
              << Table::num(a.events_per_sec, 0) << " events/s, peak RSS "
              << (a.metrics.peak_rss_bytes / (1024 * 1024)) << " MB\n";
  }

  Table table{{"Phones", "Strips", "Cells", "Build (s)", "Run (s)",
               "Events/sec", "Arena MB", "Peak RSS MB"}};
  for (const CityArm& a : results) {
    table.add_row({std::to_string(a.phones),
                   std::to_string(a.metrics.strips),
                   std::to_string(a.metrics.cells),
                   Table::num(a.build_s, 1), Table::num(a.run_s, 1),
                   Table::num(a.events_per_sec, 0),
                   std::to_string(a.metrics.arena_bytes_reserved /
                                  (1024 * 1024)),
                   std::to_string(a.metrics.peak_rss_bytes /
                                  (1024 * 1024))});
  }
  bench::emit(table, "city_scale");

  // Profiler overhead pair: smoke re-measures its largest arm, the
  // full ladder its smallest (100k) — the biggest world that is still
  // cheap to run twice. Smoke takes best-of-3 because its runs are
  // short enough for scheduler noise to dwarf a 3% bound.
  const double max_overhead_pct = bench::flag_number(
      argc, argv, "--max-profile-overhead-pct", smoke ? 3.0 : 0.0);
  const std::string trace_out =
      bench::flag_value(argc, argv, "--trace-out");
  sim::Profiler profiler;
  const OverheadPair overhead = run_overhead_pair(
      base, smoke ? ladder.back() : ladder.front(), smoke ? 3 : 1,
      &profiler);
  std::cout << "profiler overhead @ " << overhead.phones << " phones: off "
            << Table::num(overhead.run_s_off, 3) << " s, on "
            << Table::num(overhead.run_s_on, 3) << " s ("
            << Table::num(overhead.overhead_pct, 2) << "%)\n";
  if (!trace_out.empty() && profiler.write_chrome_trace_file(trace_out)) {
    std::cout << "(trace written to " << trace_out << ")\n";
  }

  std::string path = "BENCH_city_scale.json";
  if (const char* dir = std::getenv("D2DHB_CSV_DIR")) {
    if (*dir != '\0') path = std::string(dir) + "/" + path;
  }
  std::ofstream out(path);
  if (!out) {
    std::cerr << "warning: cannot write " << path << '\n';
  } else {
    out << "{\n"
        << "  \"workload\": \"city_scale\",\n"
        << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n"
        << "  \"agent_memory\": \"" << (heap_agents ? "heap" : "pooled")
        << "\",\n"
        << "  \"duration_s\": " << base.duration_s << ",\n"
        << "  \"arms\": [\n";
    for (std::size_t i = 0; i < results.size(); ++i) {
      emit_arm_json(out, results[i], i + 1 == results.size());
    }
    out << "  ],\n"
        << "  \"profile_overhead\": {\"phones\": " << overhead.phones
        << ", \"run_s_off\": " << overhead.run_s_off
        << ", \"run_s_on\": " << overhead.run_s_on
        << ", \"overhead_pct\": " << overhead.overhead_pct << "}\n"
        << "}\n";
    std::cout << "(json written to " << path << ")\n";
  }

  const double final_rss_mb =
      static_cast<double>(peak_rss_bytes()) / (1024.0 * 1024.0);
  if (max_rss_mb > 0.0 && final_rss_mb > max_rss_mb) {
    std::cerr << "error: peak RSS " << final_rss_mb << " MB exceeds the "
              << "--max-rss-mb bound of " << max_rss_mb << " MB\n";
    return 1;
  }
  if (max_overhead_pct > 0.0 && overhead.overhead_pct > max_overhead_pct) {
    std::cerr << "error: profiler overhead " << overhead.overhead_pct
              << "% exceeds the --max-profile-overhead-pct bound of "
              << max_overhead_pct << "%\n";
    return 1;
  }
  return 0;
}

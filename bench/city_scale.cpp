// City-scale cost and memory: the arena-backed world at 100k, 250k,
// and 1M phones — wall time split into build vs run, strip-arena and
// metrics-registry footprint, and process peak RSS per arm. Arms
// ascend by phone count so the getrusage peak-RSS reading after each
// arm is attributable to it (ru_maxrss is process-monotone).
// Writes BENCH_city_scale.json.
//
//   bench_city_scale [--smoke] [--threads T] [--duration S]
//                    [--heap-agents] [--max-rss-mb N]
//                    [--max-ladder-rss-mb N]
//                    [--max-profile-overhead-pct P] [--trace-out PATH]
//
// --smoke shrinks the arms to CI size. The CI memory-regression bounds
// for the smoke leg (0 = unbounded, the default for both), each failing
// with exit 1:
//   --max-ladder-rss-mb N  the ladder's peak RSS, read after its last
//                          arm, exceeds N MB (per-phone memory);
//   --max-rss-mb N         the process peak RSS at exit exceeds N MB.
//                          This covers the overhead pairs too, the
//                          only phase with the profiler on; they keep
//                          two worlds alive for as long as the host
//                          needs to reach kMinOverheadRunS, so this
//                          peak follows host speed.
//
// After the ladder the bench re-runs one arm as 9 profiler off/on
// pairs (see run_overhead_pairs); the overhead is the median of the
// pairs' on/off ratios, as a percentage.
// --max-profile-overhead-pct P fails (exit 1) when that overhead
// exceeds P% (smoke defaults to 3, full runs to unbounded);
// --trace-out PATH writes the last profiled slice's Chrome trace for
// trace_report / Perfetto.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/memory.hpp"
#include "common/table.hpp"
#include "scenario/city.hpp"
#include "scenario/scenario.hpp"
#include "sim/engine.hpp"
#include "sim/profiler.hpp"

namespace {

using namespace d2dhb;
using namespace d2dhb::scenario;

struct CityArm {
  std::size_t phones{0};
  std::size_t threads{0};
  double build_s{0.0};
  double run_s{0.0};
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
  return arm;
}

/// Profiler on/off pairs: one ladder arm re-run with spans disabled and
/// enabled. On a shared host two runs of one world often differ by more
/// than 5 %, above a 3 % bound, and so do two identically built worlds
/// run side by side (memory layout). So each pair is measured in lock
/// step:
///  * the pair builds two identical worlds and advances both through
///    the arm's duration in kSlices equal slices. Each slice profiles
///    one world and not the other, and the two worlds take turns, so
///    a faster world speeds up both arms alike; which world runs first
///    alternates every two slices, so host drift does too;
///  * a pair's ratio is its summed on time over its summed off time,
///    so each slice counts by its wall time. A 300 s city does most of
///    its work in the first slice (the association burst); an
///    unweighted mean of slice ratios let the short, noisy later
///    slices count as much as that one. The two worlds' layout factor
///    does not cancel within a pair, so the world profiled in the
///    first slice alternates from pair to pair: the factor favours
///    each arm in half the pairs, and the median absorbs it;
///  * the duration doubles until one whole run takes at least
///    kMinOverheadRunS, so each world of a pair runs that long;
///  * the gate reads the median of the pairs' ratios, so one disturbed
///    pair cannot move it.
constexpr int kOverheadPairs = 9;
constexpr int kSlices = 16;
constexpr double kMinOverheadRunS = 0.5;

struct OverheadPairs {
  std::size_t phones{0};
  double duration_s{0.0};
  int pairs{0};
  /// Median over the pairs of each arm's summed slice times.
  double run_s_off{0.0};
  double run_s_on{0.0};
  /// 100 * (median pair ratio - 1); negative values report as measured.
  double overhead_pct{0.0};
};

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

/// Wall seconds of advancing `world` to `until`.
double timed_run(Scenario& world, TimePoint until,
                 const sim::RunOptions& options) {
  using clock = std::chrono::steady_clock;
  const auto t0 = clock::now();
  sim::run(world.sim(), until, options);
  return std::chrono::duration<double>(clock::now() - t0).count();
}

OverheadPairs run_overhead_pairs(const CityConfig& base, std::size_t phones,
                                 d2dhb::sim::Profiler* profiler) {
  OverheadPairs result;
  result.phones = phones;
  result.pairs = kOverheadPairs;
  CityConfig config = base;
  config.phones = phones;
  while (run_arm(config).run_s < kMinOverheadRunS) config.duration_s *= 2.0;
  result.duration_s = config.duration_s;
  sim::RunOptions off;
  off.threads = config.threads;
  sim::RunOptions on = off;
  on.profiler = profiler;
  std::vector<double> offs, ons, ratios;
  for (int i = 0; i < kOverheadPairs; ++i) {
    const std::unique_ptr<Scenario> worlds[] = {build_city(config),
                                                build_city(config)};
    double off_s = 0.0;
    double on_s = 0.0;
    for (int k = 0; k < kSlices; ++k) {
      const TimePoint until =
          TimePoint{} + seconds(config.duration_s * (k + 1) / kSlices);
      Scenario& profiled = *worlds[(i + k) % 2];
      Scenario& plain = *worlds[1 - (i + k) % 2];
      double on_k = 0.0;
      double off_k = 0.0;
      if ((k / 2) % 2 == 0) {
        on_k = timed_run(profiled, until, on);
        off_k = timed_run(plain, until, off);
      } else {
        off_k = timed_run(plain, until, off);
        on_k = timed_run(profiled, until, on);
      }
      on_s += on_k;
      off_s += off_k;
    }
    offs.push_back(off_s);
    ons.push_back(on_s);
    ratios.push_back(on_s / off_s);
  }
  result.run_s_off = median(offs);
  result.run_s_on = median(ons);
  result.overhead_pct = 100.0 * (median(ratios) - 1.0);
  return result;
}

void emit_arm_json(std::ostream& out, const CityArm& a, bool last) {
  out << "    {\"phones\": " << a.phones << ", \"threads\": " << a.threads
      << ", \"strips\": " << a.metrics.strips
      << ", \"cells\": " << a.metrics.cells
      << ", \"relays\": " << a.metrics.relays
      << ", \"build_s\": " << a.build_s << ", \"run_s\": " << a.run_s
      << ", \"sim_events\": " << a.metrics.sim_events
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
  const double max_ladder_rss_mb =
      bench::flag_number(argc, argv, "--max-ladder-rss-mb", 0.0);
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
              << Table::num(a.run_s, 1) << " s, registry "
              << Table::num(a.registry_bytes_per_phone, 0)
              << " B/phone, peak RSS "
              << (a.metrics.peak_rss_bytes / (1024 * 1024)) << " MB\n";
  }

  Table table{{"Phones", "Strips", "Cells", "Build (s)", "Run (s)",
               "Registry B/phone", "Arena MB", "Peak RSS MB"}};
  for (const CityArm& a : results) {
    table.add_row({std::to_string(a.phones),
                   std::to_string(a.metrics.strips),
                   std::to_string(a.metrics.cells),
                   Table::num(a.build_s, 1), Table::num(a.run_s, 1),
                   Table::num(a.registry_bytes_per_phone, 0),
                   std::to_string(a.metrics.arena_bytes_reserved /
                                  (1024 * 1024)),
                   std::to_string(a.metrics.peak_rss_bytes /
                                  (1024 * 1024))});
  }
  bench::emit(table, "city_scale");
  const double ladder_rss_mb =
      static_cast<double>(results.back().metrics.peak_rss_bytes) /
      (1024.0 * 1024.0);

  // Profiler overhead pairs: smoke re-measures its largest arm, the
  // full ladder its smallest (100k) — the biggest world that is still
  // cheap to run 18 times, two worlds at a time.
  const double max_overhead_pct = bench::flag_number(
      argc, argv, "--max-profile-overhead-pct", smoke ? 3.0 : 0.0);
  const std::string trace_out =
      bench::flag_value(argc, argv, "--trace-out");
  sim::Profiler profiler;
  const OverheadPairs overhead = run_overhead_pairs(
      base, smoke ? ladder.back() : ladder.front(), &profiler);
  std::cout << "profiler overhead @ " << overhead.phones << " phones, "
            << Table::num(overhead.duration_s, 0) << " s, "
            << overhead.pairs << " pairs: median off "
            << Table::num(overhead.run_s_off, 3) << " s, on "
            << Table::num(overhead.run_s_on, 3) << " s, median ratio "
            << Table::num(overhead.overhead_pct, 2) << "%\n";
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
        << ", \"duration_s\": " << overhead.duration_s
        << ", \"pairs\": " << overhead.pairs
        << ", \"run_s_off\": " << overhead.run_s_off
        << ", \"run_s_on\": " << overhead.run_s_on
        << ", \"overhead_pct\": " << overhead.overhead_pct << "}\n"
        << "}\n";
    std::cout << "(json written to " << path << ")\n";
  }

  const double final_rss_mb =
      static_cast<double>(peak_rss_bytes()) / (1024.0 * 1024.0);
  std::cout << "peak RSS: ladder " << Table::num(ladder_rss_mb, 1)
            << " MB, process at exit " << Table::num(final_rss_mb, 1)
            << " MB\n";
  if (max_ladder_rss_mb > 0.0 && ladder_rss_mb > max_ladder_rss_mb) {
    std::cerr << "error: ladder peak RSS " << ladder_rss_mb
              << " MB exceeds the --max-ladder-rss-mb bound of "
              << max_ladder_rss_mb << " MB\n";
    return 1;
  }
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

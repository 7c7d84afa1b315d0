// d2dhb_sim — command-line experiment runner.
//
// Runs any of the library's canned experiment families from the shell,
// with the knobs exposed as flags and results printed as tables (CSV via
// D2DHB_CSV_DIR, like the benches). Independent runs (the two system
// arms, the seed matrix) execute in parallel through the runner library;
// that job-level thread count comes from D2DHB_THREADS or the hardware.
// For crowd, --threads instead sets the engine worker threads INSIDE
// each simulation (sim::RunOptions::threads) — results are byte-
// identical for any value.
//
//   d2dhb_sim pair   [--ues N] [--tx K] [--distance M] [--bytes B]
//                    [--period S] [--capacity M] [--lte] [--seed S]
//   d2dhb_sim crowd  [--phones N] [--relay-fraction F] [--area M]
//                    [--duration S] [--mobile] [--policy greedy|random|
//                    density|first-n] [--seed S] [--seeds N] [--threads T]
//                    [--city (the city preset, below)]
//   d2dhb_sim city   [--phones N] [--relay-fraction F] [--duration S]
//                    [--threads T] [--phones-per-cell N] [--heap-agents]
//                    [--seed S]
//   d2dhb_sim baselines [--phones N] [--duration S] [--seed S]
//   d2dhb_sim traces
//
// Exit status: 0 on success, 2 on bad usage.
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "common/table.hpp"
#include "metrics/export.hpp"
#include "runner/experiment_runner.hpp"
#include "runner/sweep_runner.hpp"
#include "scenario/baselines.hpp"
#include "scenario/city.hpp"
#include "scenario/compressed_pair.hpp"
#include "scenario/crowd.hpp"
#include "scenario/crowd_cli.hpp"
#include "scenario/probes.hpp"
#include "sim/profiler.hpp"

namespace {

using namespace d2dhb;
using namespace d2dhb::scenario;

[[noreturn]] void usage(const char* argv0) {
  std::cerr
      << "usage: " << argv0
      << " <pair|crowd|city|baselines|traces> [flags]\n"
      << "  pair       relay + N UEs, compressed-period methodology\n"
      << "    --ues N --tx K --distance M --bytes B --period S\n"
      << "    --capacity M --lte --seed S\n"
      << "  crowd      clustered crowd, real heartbeat periods\n"
      << crowd_flags_help()
      << "    --seeds N (run N seeds starting at --seed, aggregated)\n"
      << "    --city (switch to the city preset below)\n"
      << "  city       city-scale crowd (100k-1M phones, multicell,\n"
      << "             strip-streamed construction, aggregate metrics)\n"
      << "    --phones N --relay-fraction F --duration S --threads T\n"
      << "    --phones-per-cell N --heap-agents --seed S\n"
      << "  baselines  related-work strategy comparison\n"
      << "    --phones N --duration S --seed S --threads T\n"
      << "  traces     Fig. 6/7 current traces\n"
      << "  pair/crowd/baselines also take --metrics-out PATH (full\n"
      << "  registry snapshot per arm; .csv extension switches to CSV)\n"
      << "  crowd/city also take --profile (engine runtime spans,\n"
      << "  summary printed after the run) and --trace-out PATH\n"
      << "  (Chrome trace-event JSON for Perfetto / chrome://tracing;\n"
      << "  implies --profile; check or summarize it with trace_report)\n";
  std::exit(2);
}

/// Human summary of a profiled run — the quick look before opening the
/// trace in Perfetto or running trace_report on it.
void print_profile_summary(const sim::ProfileSummary& p) {
  auto s = [](std::uint64_t ns) {
    return Table::num(static_cast<double>(ns) / 1e9, 3);
  };
  std::cout << "\nEngine profile: " << p.workers << " worker"
            << (p.workers == 1 ? "" : "s") << ", " << p.windows
            << " round" << (p.windows == 1 ? "" : "s") << "\n"
            << "  wall " << s(p.wall_ns) << " s (rounds "
            << s(p.windowed_ns) << " s)\n"
            << "  execute " << s(p.execute_ns) << " s, barrier wait "
            << s(p.barrier_wait_ns) << " s\n"
            << "  round utilization "
            << Table::num(100.0 * p.window_utilization, 1)
            << "%, load imbalance " << Table::num(p.load_imbalance, 2)
            << "\n  barrier waits (us): p50 "
            << Table::num(p.barrier_wait_p50_us, 0) << ", p90 "
            << Table::num(p.barrier_wait_p90_us, 0) << ", p99 "
            << Table::num(p.barrier_wait_p99_us, 0) << ", max "
            << Table::num(p.barrier_wait_max_us, 0) << " ("
            << p.barrier_waits << " waits)\n";
}

/// Writes the Chrome trace when --trace-out was given.
void maybe_write_trace(const std::optional<std::string>& path,
                       const sim::Profiler& profiler) {
  if (!path) return;
  if (profiler.write_chrome_trace_file(*path)) {
    std::cout << "trace written to " << *path
              << " (Perfetto / chrome://tracing; see trace_report)\n";
  }
}

/// Complains about any flag no parser consumed, then exits via usage().
void check(const CliFlags& flags, const char* argv0) {
  const auto left = flags.leftover();
  for (const std::string& flag : left) {
    std::cerr << "unknown flag: " << flag << '\n';
  }
  if (!left.empty()) usage(argv0);
}

/// Writes the per-arm snapshot report when --metrics-out was given.
void maybe_write_metrics(const std::optional<std::string>& path,
                         const metrics::NamedSnapshots& sections) {
  if (!path) return;
  if (metrics::write_report(sections, *path)) {
    std::cout << "metrics written to " << *path << '\n';
  }
}

int run_pair(CliFlags& flags, const char* argv0) {
  CompressedPairConfig config;
  config.num_ues = static_cast<std::size_t>(flags.number("--ues", 1));
  config.transmissions = static_cast<std::size_t>(flags.number("--tx", 8));
  config.ue_distance_m = flags.number("--distance", 1.0);
  config.heartbeat_bytes =
      static_cast<std::uint32_t>(flags.number("--bytes", 54));
  config.period_s = flags.number("--period", 20.0);
  config.capacity = static_cast<std::size_t>(flags.number("--capacity", 7));
  config.use_lte = flags.has("--lte");
  config.seed = static_cast<std::uint64_t>(flags.number("--seed", 1));
  const auto metrics_out = flags.value("--metrics-out");
  check(flags, argv0);

  // The two arms are independent simulations; run them as parallel jobs.
  const runner::ExperimentRunner arms;
  const auto cells = arms.run_jobs(2, [&](std::size_t i) {
    return i == 0 ? run_original_pair(config) : run_d2d_pair(config);
  });
  const PairMetrics& orig = cells[0];
  const PairMetrics& d2d = cells[1];
  const Savings s = compare(orig, d2d);

  Table table{{"Metric", "Original", "D2D framework"}};
  table.add_row({"System radio energy (uAh)", Table::num(orig.system_uah, 0),
                 Table::num(d2d.system_uah, 0)});
  table.add_row({"UE radio energy (uAh)", Table::num(orig.ue_uah_total, 0),
                 Table::num(d2d.ue_uah_total, 0)});
  table.add_row({"Relay radio energy (uAh)", Table::num(orig.relay_uah, 0),
                 Table::num(d2d.relay_uah, 0)});
  table.add_row({"Layer-3 messages", std::to_string(orig.system_l3),
                 std::to_string(d2d.system_l3)});
  table.add_row({"Cellular bundles", std::to_string(orig.bundles),
                 std::to_string(d2d.bundles)});
  table.add_row({"Heartbeats delivered",
                 std::to_string(orig.server.delivered),
                 std::to_string(d2d.server.delivered)});
  table.add_row({"Late / offline",
                 std::to_string(orig.server.late) + " / " +
                     std::to_string(orig.server.offline_events),
                 std::to_string(d2d.server.late) + " / " +
                     std::to_string(d2d.server.offline_events)});
  table.print(std::cout);
  std::cout << "\nSavings: system energy "
            << Table::num(100 * s.system_energy_fraction, 1)
            << "%, UE energy " << Table::num(100 * s.ue_energy_fraction, 1)
            << "%, signaling "
            << Table::num(100 * s.signaling_fraction, 1) << "%\n";
  maybe_write_metrics(metrics_out,
                      {{"original", orig.metrics}, {"d2d", d2d.metrics}});
  return 0;
}

/// The city preset: one arm, aggregate counters only (no registry
/// snapshot — see scenario/city.hpp).
int run_city_mode(CliFlags& flags, const char* argv0) {
  CityConfig config;
  config.phones = static_cast<std::size_t>(
      flags.number("--phones", static_cast<double>(config.phones)));
  config.relay_fraction =
      flags.number("--relay-fraction", config.relay_fraction);
  config.duration_s = flags.number("--duration", config.duration_s);
  config.threads = static_cast<std::size_t>(
      flags.number("--threads", static_cast<double>(config.threads)));
  config.phones_per_cell = static_cast<std::size_t>(flags.number(
      "--phones-per-cell", static_cast<double>(config.phones_per_cell)));
  config.heap_agents = flags.has("--heap-agents");
  config.profile = flags.has("--profile");
  const auto trace_out = flags.value("--trace-out");
  config.seed = static_cast<std::uint64_t>(
      flags.number("--seed", static_cast<double>(config.seed)));
  check(flags, argv0);

  // --trace-out needs the merged spans after the run, so the driver
  // owns the recorder (a bare --profile would also work through the
  // engine's run-local one, but one code path is plenty here).
  sim::Profiler profiler;
  const bool profiled = config.profile || trace_out.has_value();
  if (profiled) config.profiler = &profiler;

  const CityMetrics m = run_city_crowd(config);
  Table table{{"Metric", "Value"}};
  table.add_row({"Phones / relays", std::to_string(m.phones) + " / " +
                                        std::to_string(m.relays)});
  table.add_row({"Cells / strips", std::to_string(m.cells) + " / " +
                                       std::to_string(m.strips)});
  table.add_row({"Layer-3 messages", std::to_string(m.total_l3)});
  table.add_row({"Peak L3 / 10 s", std::to_string(m.peak_l3_per_10s)});
  table.add_row(
      {"Heartbeats delivered", std::to_string(m.heartbeats_delivered)});
  table.add_row({"Forwarded via D2D", std::to_string(m.forwarded_via_d2d)});
  table.add_row({"Fallbacks", std::to_string(m.fallbacks)});
  table.add_row({"Sim events", std::to_string(m.sim_events)});
  table.add_row({"Arena bytes (alloc/reserved)",
                 std::to_string(m.arena_bytes_allocated) + " / " +
                     std::to_string(m.arena_bytes_reserved)});
  table.add_row({"Arena objects", std::to_string(m.arena_objects)});
  table.add_row({"Peak RSS (MB)",
                 std::to_string(m.peak_rss_bytes / (1024 * 1024))});
  table.print(std::cout);
  if (profiled) {
    print_profile_summary(m.profile);
    maybe_write_trace(trace_out, profiler);
  }
  return 0;
}

/// Both arms of one crowd run under the same layout seed.
struct CrowdCell {
  CrowdMetrics d2d;
  CrowdMetrics orig;
};

int run_crowd(CliFlags& flags, const char* argv0) {
  // The city preset rides on the crowd mode as a flag, too.
  if (flags.has("--city")) return run_city_mode(flags, argv0);
  CrowdConfig config;
  config.phones = 48;
  config.area_m = 100.0;
  if (const std::string error = apply_crowd_flags(flags, config);
      !error.empty()) {
    std::cerr << error << '\n';
    usage(argv0);
  }
  const auto seed_count =
      static_cast<std::size_t>(flags.number("--seeds", 1));
  const auto metrics_out = flags.value("--metrics-out");
  const auto trace_out = flags.value("--trace-out");
  check(flags, argv0);
  if (seed_count == 0) {
    std::cerr << "--seeds must be >= 1\n";
    usage(argv0);
  }
  if (trace_out) config.profile = true;
  if (config.profile && seed_count > 1) {
    std::cerr << "--profile/--trace-out record one run; use --seeds 1\n";
    usage(argv0);
  }

  if (seed_count > 1) {
    // Seed matrix: aggregate both arms across layouts.
    runner::SweepRunner<CrowdConfig, CrowdCell> sweep(
        [](const CrowdConfig& base, std::uint64_t seed) {
          CrowdConfig cfg = base;
          cfg.seed = seed;
          return CrowdCell{run_d2d_crowd(cfg), run_original_crowd(cfg)};
        });
    // Job parallelism across seeds stays with the runner's default
    // (D2DHB_THREADS or hardware); --threads was consumed above into
    // config.threads — engine workers inside each simulation.
    sweep.point(std::to_string(config.phones) + " phones", config)
        .seeds(runner::seed_range(config.seed, seed_count))
        .metric("signaling saved",
                [](const CrowdCell& c) {
                  return 1.0 - static_cast<double>(c.d2d.total_l3) /
                                   static_cast<double>(c.orig.total_l3);
                })
        .metric("energy saved",
                [](const CrowdCell& c) {
                  return 1.0 - c.d2d.total_radio_uah / c.orig.total_radio_uah;
                })
        .metric("D2D L3 msgs",
                [](const CrowdCell& c) {
                  return static_cast<double>(c.d2d.total_l3);
                })
        .metric("peak L3/10s",
                [](const CrowdCell& c) {
                  return static_cast<double>(c.d2d.peak_l3_per_10s);
                })
        .metric("fallbacks",
                [](const CrowdCell& c) {
                  return static_cast<double>(c.d2d.fallbacks);
                })
        .metric("offline events",
                [](const CrowdCell& c) {
                  return static_cast<double>(c.d2d.server.offline_events);
                })
        .snapshot([](const CrowdCell& c) { return c.d2d.metrics; });
    std::cout << "Crowd sweep: " << seed_count << " seeds from "
              << config.seed << "\n";
    const auto result = sweep.run();
    result.table().print(std::cout);
    if (metrics_out) {
      // D2D arm merged across seeds via the runner's aggregation; the
      // original arm merged the same way by hand (one snapshot hook per
      // sweep, and the cells carry both arms).
      std::vector<metrics::Snapshot> orig_parts;
      for (const CrowdCell& cell : result.cells.at(0)) {
        orig_parts.push_back(cell.orig.metrics);
      }
      maybe_write_metrics(metrics_out,
                          {{"original", metrics::merge(orig_parts)},
                           {"d2d", result.merged_snapshot(0)}});
    }
    return 0;
  }

  sim::Profiler profiler;
  CrowdMetrics orig;
  CrowdMetrics d2d;
  if (config.profile) {
    // Profiled: arms run sequentially — concurrent arm jobs would
    // pollute the profiled arm's wall-clock spans — and only the d2d
    // arm (the headline) carries the recorder.
    CrowdConfig orig_config = config;
    orig_config.profile = false;
    orig = run_original_crowd(orig_config);
    config.profiler = &profiler;
    d2d = run_d2d_crowd(config);
  } else {
    const runner::ExperimentRunner arms;
    auto cells = arms.run_jobs(2, [&](std::size_t i) {
      return i == 0 ? run_original_crowd(config) : run_d2d_crowd(config);
    });
    orig = std::move(cells[0]);
    d2d = std::move(cells[1]);
  }

  Table table{{"Metric", "Original", "D2D framework"}};
  table.add_row({"Phones / relays",
                 std::to_string(config.phones) + " / 0",
                 std::to_string(config.phones) + " / " +
                     std::to_string(d2d.relays)});
  table.add_row({"Layer-3 messages", std::to_string(orig.total_l3),
                 std::to_string(d2d.total_l3)});
  table.add_row({"Peak L3 / 10 s", std::to_string(orig.peak_l3_per_10s),
                 std::to_string(d2d.peak_l3_per_10s)});
  table.add_row({"Fleet radio energy (uAh)",
                 Table::num(orig.total_radio_uah, 0),
                 Table::num(d2d.total_radio_uah, 0)});
  table.add_row({"Heartbeats delivered",
                 std::to_string(orig.heartbeats_delivered),
                 std::to_string(d2d.heartbeats_delivered)});
  table.add_row({"Forwarded via D2D", "0",
                 std::to_string(d2d.forwarded_via_d2d)});
  table.add_row({"Fallbacks / link losses", "0 / 0",
                 std::to_string(d2d.fallbacks) + " / " +
                     std::to_string(d2d.link_losses)});
  table.add_row({"Offline events", std::to_string(orig.server.offline_events),
                 std::to_string(d2d.server.offline_events)});
  table.add_row({"Relay credits issued", "0",
                 Table::num(d2d.credits_issued, 0)});
  table.print(std::cout);
  if (config.operator_policy.has_value()) {
    std::cout << "\nOperator relay coverage: "
              << Table::num(100 * d2d.relay_coverage, 1) << "%\n";
  }
  if (config.profile) {
    print_profile_summary(d2d.profile);
    maybe_write_trace(trace_out, profiler);
  }
  maybe_write_metrics(metrics_out,
                      {{"original", orig.metrics}, {"d2d", d2d.metrics}});
  return 0;
}

int run_baselines(CliFlags& flags, const char* argv0) {
  BaselineConfig config;
  config.phones = static_cast<std::size_t>(flags.number("--phones", 12));
  config.duration_s = flags.number("--duration", 3600.0);
  config.seed = static_cast<std::uint64_t>(flags.number("--seed", 21));
  const auto threads =
      static_cast<std::size_t>(flags.number("--threads", 0));
  const auto metrics_out = flags.value("--metrics-out");
  check(flags, argv0);

  // Each strategy arm is an independent simulation — parallel jobs.
  using StrategyFn = StrategyMetrics (*)(const BaselineConfig&);
  const StrategyFn arms[] = {
      run_baseline_original,
      +[](const BaselineConfig& c) {
        return run_baseline_period_extension(c, 2.0);
      },
      run_baseline_piggyback,
      run_baseline_fast_dormancy,
      run_d2d_framework_arm,
  };
  const runner::ExperimentRunner runner{threads};
  const auto strategies = runner.run_jobs(
      std::size(arms), [&](std::size_t i) { return arms[i](config); });

  Table table{{"Strategy", "L3 msgs", "Radio uAh", "Mean delay (s)",
               "Offline detect (s)", "Notes"}};
  for (const StrategyMetrics& s : strategies) {
    table.add_row({s.name, std::to_string(s.total_l3),
                   Table::num(s.total_radio_uah, 0),
                   Table::num(s.mean_latency_s, 1),
                   Table::num(s.offline_detection_s, 0), s.note});
  }
  table.print(std::cout);
  if (metrics_out) {
    metrics::NamedSnapshots sections;
    for (const StrategyMetrics& s : strategies) {
      sections.emplace_back(s.name, s.metrics);
    }
    maybe_write_metrics(metrics_out, sections);
  }
  return 0;
}

int run_traces(CliFlags& flags, const char* argv0) {
  check(flags, argv0);
  const TraceResult d2d = trace_d2d_transfer();
  const TraceResult cell = trace_cellular_transfer();
  AsciiChart chart{"Current traces (0.1 s sampling)", "time (s)",
                   "current (mA)"};
  chart.add(d2d.series);
  Series shifted = cell.series;
  chart.add(shifted);
  chart.print(std::cout);
  std::cout << "D2D: peak " << Table::num(d2d.peak_ma, 0) << " mA, "
            << Table::num(d2d.charge_uah, 1) << " uAh; cellular: peak "
            << Table::num(cell.peak_ma, 0) << " mA, "
            << Table::num(cell.charge_uah, 1) << " uAh\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage(argv[0]);
  const std::string mode = argv[1];
  CliFlags flags{argc, argv, 2};
  if (mode == "pair") return run_pair(flags, argv[0]);
  if (mode == "crowd") return run_crowd(flags, argv[0]);
  if (mode == "city") return run_city_mode(flags, argv[0]);
  if (mode == "baselines") return run_baselines(flags, argv[0]);
  if (mode == "traces") return run_traces(flags, argv[0]);
  usage(argv[0]);
}

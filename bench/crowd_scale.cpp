// Deployment-scale sweep: the paper's headline numbers in the crowd
// setting that motivates it (Section II-D), plus the synchronized
// signaling-storm stress case. The phone-count × seed matrix runs
// multithreaded through SweepRunner; per-point savings are aggregated
// across seeds (mean / spread / CI), so the headline numbers come with
// their layout sensitivity attached.
#include <chrono>
#include <cstddef>
#include <fstream>
#include <iostream>

#include "bench_util.hpp"
#include "common/table.hpp"
#include "scenario/crowd.hpp"
#include "scenario/crowd_cli.hpp"

namespace {

using namespace d2dhb;
using namespace d2dhb::scenario;

/// One sweep cell: both arms under the same layout seed.
struct CrowdCell {
  CrowdMetrics d2d;
  CrowdMetrics orig;
};

double signaling_saved(const CrowdCell& c) {
  return 1.0 - static_cast<double>(c.d2d.total_l3) /
                   static_cast<double>(c.orig.total_l3);
}

double energy_saved(const CrowdCell& c) {
  return 1.0 - c.d2d.total_radio_uah / c.orig.total_radio_uah;
}

CrowdConfig scale_point(std::size_t phones) {
  CrowdConfig config;
  config.phones = phones;
  config.relay_fraction = 0.2;
  config.area_m = 50.0 + static_cast<double>(phones);
  config.clusters = 1 + phones / 24;
  config.cluster_stddev_m = 7.0;
  config.duration_s = 3600.0;
  return config;
}

/// Grid-vs-legacy medium comparison: the same seeded crowd answered by
/// the spatial-grid world index and by the legacy linear-scan medium
/// (bit-identical results, different wall clock). Events/sec old vs
/// new, written machine-readably like perf_kernel's kernel report.
void run_medium_comparison(std::size_t phones, double duration_s) {
  CrowdConfig config = scale_point(phones);
  config.duration_s = duration_s;
  config.seed = 101;
  // Periodic relay re-assessment keeps connected UEs scanning for the
  // whole run — the discovery-dominated regime where the medium's
  // query structure decides throughput.
  config.reassess_interval_s = 60.0;

  auto timed = [&](bool legacy) {
    CrowdConfig arm = config;
    arm.legacy_scan = legacy;
    const auto t0 = std::chrono::steady_clock::now();
    const CrowdMetrics m = run_d2d_crowd(arm);
    const auto t1 = std::chrono::steady_clock::now();
    const double s = std::chrono::duration<double>(t1 - t0).count();
    return std::pair<double, CrowdMetrics>{
        static_cast<double>(m.sim_events) / s, m};
  };

  std::cout << "\nMedium comparison (grid vs legacy linear scan), "
            << phones << " phones, " << duration_s << " s simulated:\n";
  const auto [grid_eps, grid_m] = timed(false);
  const auto [legacy_eps, legacy_m] = timed(true);
  const double speedup = legacy_eps == 0.0 ? 0.0 : grid_eps / legacy_eps;
  if (grid_m.total_l3 != legacy_m.total_l3 ||
      grid_m.sim_events != legacy_m.sim_events) {
    std::cerr << "warning: grid and legacy runs diverged "
              << "(L3 " << grid_m.total_l3 << " vs " << legacy_m.total_l3
              << ", events " << grid_m.sim_events << " vs "
              << legacy_m.sim_events << ")\n";
  }

  std::string path = "BENCH_crowd_medium.json";
  if (const char* dir = std::getenv("D2DHB_CSV_DIR")) {
    if (*dir != '\0') path = std::string(dir) + "/" + path;
  }
  std::ofstream out(path);
  if (!out) {
    std::cerr << "warning: cannot write " << path << '\n';
  } else {
    out << "{\n"
        << "  \"workload\": \"crowd_discovery_medium\",\n"
        << "  \"phones\": " << phones << ",\n"
        << "  \"duration_s\": " << duration_s << ",\n"
        << "  \"reassess_interval_s\": " << config.reassess_interval_s
        << ",\n"
        << "  \"sim_events\": " << grid_m.sim_events << ",\n"
        << "  \"results_identical\": "
        << ((grid_m.total_l3 == legacy_m.total_l3 &&
             grid_m.sim_events == legacy_m.sim_events)
                ? "true"
                : "false")
        << ",\n"
        << "  \"new_grid_events_per_sec\": " << grid_eps << ",\n"
        << "  \"old_scan_events_per_sec\": " << legacy_eps << ",\n"
        << "  \"speedup\": " << speedup << "\n"
        << "}\n";
  }
  std::cout << "grid " << static_cast<std::uint64_t>(grid_eps)
            << " ev/s vs legacy scan "
            << static_cast<std::uint64_t>(legacy_eps) << " ev/s -> "
            << speedup << "x\n(json written to " << path << ")\n";
}

}  // namespace

int main(int argc, char** argv) {
  // --smoke       small fixed point for the CI scaling smoke (golden
  //               metrics diff); skips the storm section.
  // --compare N   grid-vs-legacy medium comparison at N phones
  //               (--compare-duration S simulated seconds, default 120)
  //               writing BENCH_crowd_medium.json.
  const bool smoke = bench::has_flag(argc, argv, "--smoke");
  const auto compare_phones = static_cast<std::size_t>(
      bench::flag_number(argc, argv, "--compare", 0.0));
  const double compare_duration =
      bench::flag_number(argc, argv, "--compare-duration", 120.0);
  // Shared crowd knobs (--threads, --duration, ...) overlay every point.
  CliFlags crowd_flags{argc, argv};
  auto with_overrides = [&crowd_flags, argv](CrowdConfig config) {
    if (const std::string error = apply_crowd_flags(crowd_flags, config);
        !error.empty()) {
      std::cerr << argv[0] << ": " << error << '\n';
      std::exit(2);
    }
    return config;
  };

  bench::print_header(
      "Crowd scale: signaling and energy at deployment size (1 h runs)",
      ">50% signaling reduction; energy saving grows with relay load");
  bench::announce_threads();

  runner::SweepRunner<CrowdConfig, CrowdCell> sweep(
      [](const CrowdConfig& base, std::uint64_t seed) {
        CrowdConfig config = base;
        config.seed = seed;
        return CrowdCell{run_d2d_crowd(config), run_original_crowd(config)};
      });
  if (smoke) {
    CrowdConfig point = scale_point(16);
    point.duration_s = 600.0;
    sweep.point("16 phones (smoke)", with_overrides(point));
  } else {
    for (const std::size_t phones : {24u, 48u, 96u}) {
      sweep.point(std::to_string(phones) + " phones",
                  with_overrides(scale_point(phones)));
    }
  }
  sweep.seeds(bench::bench_seeds(101, smoke ? 2 : 5))
      .metric("signaling saved", signaling_saved)
      .metric("energy saved", energy_saved)
      .metric("D2D L3 msgs",
              [](const CrowdCell& c) {
                return static_cast<double>(c.d2d.total_l3);
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
  const auto result = sweep.run();
  bench::emit(result.table(), "crowd_scale");
  // One merged-across-seeds snapshot per sweep point (D2D arm).
  bench::emit_metrics(result.labeled_snapshots(),
                      bench::metrics_out_path(argc, argv));

  // Per-point detail for the first seed — the paper-style absolute rows.
  Table detail{{"Phones", "Relays", "Orig L3", "D2D L3", "Signaling saved",
                "Orig radio uAh", "D2D radio uAh", "Energy saved",
                "Fallbacks", "Offline"}};
  for (std::size_t p = 0; p < result.cells.size(); ++p) {
    const CrowdCell& cell = result.cells[p].front();
    detail.add_row({result.point_labels[p], std::to_string(cell.d2d.relays),
                    std::to_string(cell.orig.total_l3),
                    std::to_string(cell.d2d.total_l3),
                    bench::pct(signaling_saved(cell)),
                    Table::num(cell.orig.total_radio_uah, 0),
                    Table::num(cell.d2d.total_radio_uah, 0),
                    bench::pct(energy_saved(cell)),
                    std::to_string(cell.d2d.fallbacks),
                    std::to_string(cell.d2d.server.offline_events)});
  }
  std::cout << "\nFirst-seed detail:\n";
  bench::emit(detail, "crowd_scale_detail");

  if (compare_phones > 0) {
    run_medium_comparison(compare_phones, compare_duration);
  }
  if (smoke) return 0;

  std::cout << "\nSynchronized storm (all first beats within ~3 s):\n";
  CrowdConfig sync;
  sync.phones = 48;
  sync.relay_fraction = 0.2;
  sync.area_m = 70.0;
  sync.clusters = 2;
  sync.duration_s = 1800.0;
  sync.stagger_fraction = 0.01;
  sync = with_overrides(sync);
  // Both arms are independent simulations — run them as parallel jobs.
  const runner::ExperimentRunner arms;
  const auto storm_cells = arms.run_jobs(2, [&](std::size_t arm) {
    return arm == 0 ? run_original_crowd(sync) : run_d2d_crowd(sync);
  });
  Table storm{{"System", "Peak L3 / 10 s", "Total L3"}};
  storm.add_row({"original", std::to_string(storm_cells[0].peak_l3_per_10s),
                 std::to_string(storm_cells[0].total_l3)});
  storm.add_row({"D2D framework",
                 std::to_string(storm_cells[1].peak_l3_per_10s),
                 std::to_string(storm_cells[1].total_l3)});
  storm.print(std::cout);
  return 0;
}

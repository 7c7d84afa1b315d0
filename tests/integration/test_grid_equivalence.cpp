// Seeded-run equivalence across the world-index refactor: the same
// crowd, answered by the spatial grid and by the legacy linear scan,
// must produce byte-identical metrics exports. This is the contract
// that lets the grid replace the all-pairs loops without perturbing
// any seeded result in the repo.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "metrics/export.hpp"
#include "scenario/crowd.hpp"

namespace d2dhb::scenario {
namespace {

std::string metrics_json(const CrowdMetrics& m) {
  std::ostringstream os;
  metrics::export_json(m.metrics, os);
  return os.str();
}

CrowdConfig small_crowd(std::uint64_t seed) {
  CrowdConfig config;
  config.phones = 24;
  config.relay_fraction = 0.25;
  config.area_m = 70.0;
  config.clusters = 2;
  config.duration_s = 900.0;
  config.seed = seed;
  return config;
}

void expect_identical_runs(const CrowdConfig& base, const char* what) {
  CrowdConfig grid_arm = base;
  grid_arm.legacy_scan = false;
  CrowdConfig legacy_arm = base;
  legacy_arm.legacy_scan = true;

  const CrowdMetrics grid = run_d2d_crowd(grid_arm);
  const CrowdMetrics legacy = run_d2d_crowd(legacy_arm);

  EXPECT_EQ(grid.total_l3, legacy.total_l3) << what;
  EXPECT_EQ(grid.sim_events, legacy.sim_events) << what;
  EXPECT_EQ(grid.heartbeats_delivered, legacy.heartbeats_delivered) << what;
  EXPECT_EQ(grid.fallbacks, legacy.fallbacks) << what;
  EXPECT_EQ(grid.link_losses, legacy.link_losses) << what;
  EXPECT_DOUBLE_EQ(grid.total_radio_uah, legacy.total_radio_uah) << what;
  EXPECT_DOUBLE_EQ(grid.relay_coverage, legacy.relay_coverage) << what;
  // The full registry export — every counter, gauge, and histogram the
  // substrates registered — must serialize byte for byte the same.
  EXPECT_EQ(metrics_json(grid), metrics_json(legacy)) << what;
}

TEST(GridEquivalence, StaticCrowdIsByteIdentical) {
  expect_identical_runs(small_crowd(4242), "static crowd");
}

TEST(GridEquivalence, MobileCrowdIsByteIdentical) {
  CrowdConfig config = small_crowd(977);
  config.mobile = true;  // waypoint UEs churn links -> range-exit sweeps
  expect_identical_runs(config, "mobile crowd");
}

TEST(GridEquivalence, OperatorSelectedCrowdIsByteIdentical) {
  CrowdConfig config = small_crowd(31);
  config.operator_policy = core::SelectionPolicy::coverage_greedy;
  config.cell_grid = 2;
  expect_identical_runs(config, "coverage-greedy multi-cell crowd");
}

TEST(GridEquivalence, GridCellSizeDoesNotChangeResults) {
  // The ablation knob: any positive cell size answers the same queries
  // with the same results — only bucket shapes differ.
  CrowdConfig base = small_crowd(4242);
  const CrowdMetrics reference = run_d2d_crowd(base);
  for (const double cell_m : {3.0, 25.0}) {
    CrowdConfig config = base;
    config.grid_cell_m = cell_m;
    const CrowdMetrics got = run_d2d_crowd(config);
    EXPECT_EQ(metrics_json(got), metrics_json(reference))
        << "cell " << cell_m << " m";
    EXPECT_EQ(got.total_l3, reference.total_l3) << "cell " << cell_m << " m";
  }
}

TEST(GridEquivalence, RepeatedSeededRunsAreDeterministic) {
  // Same seed, same path, twice — guards the grid's internal state
  // (bucket reuse, removal order) against run-order dependence.
  const CrowdConfig config = small_crowd(512);
  const CrowdMetrics a = run_d2d_crowd(config);
  const CrowdMetrics b = run_d2d_crowd(config);
  EXPECT_EQ(metrics_json(a), metrics_json(b));
  EXPECT_EQ(a.total_l3, b.total_l3);
  EXPECT_EQ(a.sim_events, b.sim_events);
}

}  // namespace
}  // namespace d2dhb::scenario

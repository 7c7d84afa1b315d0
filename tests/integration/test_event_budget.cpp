// Deterministic event budget. The static two-cell crowd that CI runs
// as `d2dhb_sim crowd --phones 400 --area 500 --cell-grid 2
// --duration 900` executes an exact, thread-count-independent number
// of events; pinning it catches any new bookkeeping event stream the
// moment it appears. Phase energy is computed by the meter and the
// link monitor only runs for links that can break, so what remains is
// protocol traffic: under 10 events per delivered heartbeat.
#include <gtest/gtest.h>

#include <cstdint>

#include "scenario/crowd.hpp"
#include "sim/engine.hpp"

namespace d2dhb::scenario {
namespace {

CrowdMetrics run_static_two_cell_crowd(std::size_t threads) {
  CrowdConfig config;
  config.phones = 400;
  config.area_m = 500.0;
  config.cell_grid = 2;
  config.duration_s = 900.0;
  config.threads = threads;
  CrowdWorld built = build_d2d_crowd(config);
  sim::RunOptions options;
  options.threads = threads;
  const sim::RunStats stats =
      sim::run(built.world->sim(), TimePoint{} + seconds(config.duration_s),
               options);
  return collect_d2d_crowd(built, stats);
}

// Pinned by the change that stopped polling links between static
// endpoints and made energy phases pending meter steps instead of
// events. The same world ran 334,038 events (285 per heartbeat) before
// it. Re-pin only with a stated reason for every event added.
constexpr std::uint64_t kStaticTwoCellEvents = 5481;

TEST(EventBudget, StaticTwoCellCrowdIsPinned) {
  for (const std::size_t threads : {1u, 2u}) {
    const CrowdMetrics m = run_static_two_cell_crowd(threads);
    ASSERT_GT(m.heartbeats_delivered, 0u);
    EXPECT_EQ(m.sim_events, kStaticTwoCellEvents) << threads << " threads";
    EXPECT_LT(static_cast<double>(m.sim_events),
              10.0 * static_cast<double>(m.heartbeats_delivered))
        << threads << " threads: " << m.sim_events << " events for "
        << m.heartbeats_delivered << " heartbeats";
  }
}

}  // namespace
}  // namespace d2dhb::scenario

// Crowd-scale behaviour: the deployment scenario of Section II-D.
#include <gtest/gtest.h>

#include <cmath>

#include "scenario/crowd.hpp"

namespace d2dhb::scenario {
namespace {

CrowdConfig small_crowd() {
  CrowdConfig config;
  config.phones = 24;
  config.relay_fraction = 0.25;
  config.area_m = 60.0;
  config.clusters = 2;
  config.cluster_stddev_m = 6.0;
  config.duration_s = 1800.0;  // 30 simulated minutes
  return config;
}

TEST(Crowd, D2dReducesTotalSignaling) {
  const CrowdConfig config = small_crowd();
  const CrowdMetrics d2d = run_d2d_crowd(config);
  const CrowdMetrics orig = run_original_crowd(config);
  ASSERT_GT(orig.total_l3, 0u);
  const double reduction =
      1.0 - static_cast<double>(d2d.total_l3) /
                static_cast<double>(orig.total_l3);
  // Most phones are UEs forwarding over D2D; expect a large cut.
  EXPECT_GT(reduction, 0.4);
}

TEST(Crowd, D2dMitigatesSynchronizedSignalingStorm) {
  // The storm worst case (Section II-B): every phone's heartbeat lands in
  // nearly the same instant. The original system slams the control
  // channel with one RRC cycle per phone; the D2D system needs only one
  // per relay.
  CrowdConfig config = small_crowd();
  config.stagger_fraction = 0.01;  // near-synchronized first beats
  const CrowdMetrics d2d = run_d2d_crowd(config);
  const CrowdMetrics orig = run_original_crowd(config);
  EXPECT_LT(d2d.peak_l3_per_10s, orig.peak_l3_per_10s);
}

TEST(Crowd, NobodyGoesOffline) {
  const CrowdMetrics d2d = run_d2d_crowd(small_crowd());
  EXPECT_EQ(d2d.server.offline_events, 0u);
  EXPECT_EQ(d2d.server.late, 0u);
}

TEST(Crowd, MostHeartbeatsTravelViaD2d) {
  const CrowdMetrics d2d = run_d2d_crowd(small_crowd());
  ASSERT_GT(d2d.heartbeats_emitted, 0u);
  const double d2d_share =
      static_cast<double>(d2d.forwarded_via_d2d) /
      static_cast<double>(d2d.heartbeats_emitted);
  EXPECT_GT(d2d_share, 0.5);
}

TEST(Crowd, RelaysEarnCredits) {
  const CrowdMetrics d2d = run_d2d_crowd(small_crowd());
  EXPECT_GT(d2d.credits_issued, 0.0);
  // Credits are granted on uplink completion; heartbeats still buffered
  // at the horizon haven't been credited yet.
  EXPECT_LE(d2d.credits_issued, static_cast<double>(d2d.forwarded_via_d2d));
  EXPECT_GE(d2d.credits_issued,
            0.8 * static_cast<double>(d2d.forwarded_via_d2d));
}

TEST(Crowd, MobilityCausesChurnButNoOutage) {
  CrowdConfig config = small_crowd();
  config.mobile = true;
  config.duration_s = 2700.0;
  const CrowdMetrics d2d = run_d2d_crowd(config);
  EXPECT_EQ(d2d.server.offline_events, 0u);
  // Churn shows up as fallbacks and/or link losses.
  EXPECT_GT(d2d.fallbacks + d2d.link_losses + d2d.forwarded_via_d2d, 0u);
}

TEST(Crowd, EnergySavingsHoldAtScale) {
  CrowdConfig config = small_crowd();
  config.duration_s = 3600.0;
  const CrowdMetrics d2d = run_d2d_crowd(config);
  const CrowdMetrics orig = run_original_crowd(config);
  // Radio energy across the whole crowd drops.
  EXPECT_LT(d2d.total_radio_uah, orig.total_radio_uah);
}

TEST(Crowd, DeterministicForSeed) {
  const CrowdMetrics a = run_d2d_crowd(small_crowd());
  const CrowdMetrics b = run_d2d_crowd(small_crowd());
  EXPECT_EQ(a.total_l3, b.total_l3);
  EXPECT_DOUBLE_EQ(a.total_radio_uah, b.total_radio_uah);
}

TEST(Crowd, GreedyOperatorSelectionCoversMoreThanRandom) {
  CrowdConfig config = small_crowd();
  config.phones = 40;
  config.area_m = 100.0;
  config.duration_s = 1200.0;
  config.operator_policy = core::SelectionPolicy::coverage_greedy;
  const CrowdMetrics greedy = run_d2d_crowd(config);
  config.operator_policy = core::SelectionPolicy::random;
  const CrowdMetrics random = run_d2d_crowd(config);
  EXPECT_GE(greedy.relay_coverage, random.relay_coverage);
  EXPECT_GE(greedy.forwarded_via_d2d, random.forwarded_via_d2d);
}

TEST(Crowd, OperatorSelectionRespectsBudget) {
  CrowdConfig config = small_crowd();
  config.relay_fraction = 0.25;
  config.operator_policy = core::SelectionPolicy::coverage_greedy;
  config.duration_s = 600.0;
  const CrowdMetrics m = run_d2d_crowd(config);
  EXPECT_EQ(m.relays, static_cast<std::uint64_t>(
                          std::round(0.25 * config.phones)));
}

/// Both arms of one seed walk phone i on the same trajectory, with and
/// without an operator policy (whose relay draw comes before the
/// mobility key in both arms). Relays stand still in the D2D arm, so
/// only the phones that walk in both are compared.
TEST(Crowd, PhonesWalkTheSameTrajectoriesInBothArms) {
  for (const bool policy : {false, true}) {
    SCOPED_TRACE(policy ? "coverage_greedy policy" : "first-N relays");
    CrowdConfig config = small_crowd();
    config.mobile = true;
    if (policy) {
      config.operator_policy = core::SelectionPolicy::coverage_greedy;
    }
    const CrowdWorld d2d = build_d2d_crowd(config);
    const CrowdWorld original = build_original_crowd(config);
    std::size_t compared = 0;
    for (std::uint64_t id = 1; id <= config.phones; ++id) {
      const NodeId node{id};
      if (d2d.world->nodes().mobility_of(node).is_static()) continue;
      for (const double t : {0.0, 200.0, 900.0, 1800.0}) {
        const TimePoint at = TimePoint{} + seconds(t);
        const mobility::Vec2 a = d2d.world->nodes().position_of(node, at);
        const mobility::Vec2 b = original.world->nodes().position_of(node, at);
        EXPECT_EQ(a.x, b.x) << "phone #" << id << " at " << t << " s";
        EXPECT_EQ(a.y, b.y) << "phone #" << id << " at " << t << " s";
      }
      ++compared;
    }
    EXPECT_EQ(compared, config.phones - 6);  // all but the 6 relays
  }
}

}  // namespace
}  // namespace d2dhb::scenario

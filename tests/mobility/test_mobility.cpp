#include "mobility/mobility.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

namespace d2dhb::mobility {
namespace {

TEST(Vec2, Arithmetic) {
  const Vec2 a{1.0, 2.0};
  const Vec2 b{3.0, -1.0};
  EXPECT_EQ(a + b, (Vec2{4.0, 1.0}));
  EXPECT_EQ(a - b, (Vec2{-2.0, 3.0}));
  EXPECT_EQ(a * 2.0, (Vec2{2.0, 4.0}));
}

TEST(Vec2, DistanceIsEuclidean) {
  EXPECT_DOUBLE_EQ(distance({0, 0}, {3, 4}).value, 5.0);
  EXPECT_DOUBLE_EQ(distance({1, 1}, {1, 1}).value, 0.0);
}

TEST(StaticMobility, NeverMoves) {
  StaticMobility m{{5.0, 7.0}};
  EXPECT_EQ(m.position_at(TimePoint{}), (Vec2{5.0, 7.0}));
  EXPECT_EQ(m.position_at(TimePoint{} + seconds(1e6)), (Vec2{5.0, 7.0}));
}

/// The discovery index bins a radio once exactly when its model says it
/// never moves, offsets included.
TEST(MobilityModel, StaticModelsAreDetected) {
  StaticMobility still{{1.0, 1.0}};
  OffsetMobility offset_still{still, {2.0, 0.0}};
  LinearMobility moving{{0.0, 0.0}, {1.0, 0.0}};
  OffsetMobility offset_moving{moving, {2.0, 0.0}};
  EXPECT_TRUE(still.is_static());
  EXPECT_TRUE(offset_still.is_static());
  EXPECT_FALSE(moving.is_static());
  EXPECT_FALSE(offset_moving.is_static());
}

TEST(LinearMobility, MovesAtConstantVelocity) {
  LinearMobility m{{0.0, 0.0}, {1.0, 0.5}};  // 1 m/s east, 0.5 m/s north
  const Vec2 p = m.position_at(TimePoint{} + seconds(10));
  EXPECT_DOUBLE_EQ(p.x, 10.0);
  EXPECT_DOUBLE_EQ(p.y, 5.0);
}

TEST(LinearMobility, WalkAwayCrossesRange) {
  // A UE walking 1 m/s away from a relay at the origin leaves a 30 m
  // radio range at t = 30 s.
  LinearMobility ue{{0.0, 0.0}, {1.0, 0.0}};
  StaticMobility relay{{0.0, 0.0}};
  const auto d_at = [&](double t_s) {
    return distance(ue.position_at(TimePoint{} + seconds(t_s)),
                    relay.position_at(TimePoint{} + seconds(t_s)))
        .value;
  };
  EXPECT_LT(d_at(29.0), 30.0);
  EXPECT_GT(d_at(31.0), 30.0);
}

TEST(RandomWaypoint, StaysInsideArea) {
  RandomWaypoint::Params params;
  params.area_min = {0.0, 0.0};
  params.area_max = {50.0, 50.0};
  RandomWaypoint m{params, {25.0, 25.0}, 42, NodeId{1}};
  for (int t = 0; t <= 3600; t += 10) {
    const Vec2 p = m.position_at(TimePoint{} + seconds(t));
    EXPECT_GE(p.x, 0.0);
    EXPECT_LE(p.x, 50.0);
    EXPECT_GE(p.y, 0.0);
    EXPECT_LE(p.y, 50.0);
  }
}

TEST(RandomWaypoint, DeterministicForSeed) {
  RandomWaypoint::Params params;
  RandomWaypoint a{params, {10.0, 10.0}, 7, NodeId{3}};
  RandomWaypoint b{params, {10.0, 10.0}, 7, NodeId{3}};
  for (int t = 0; t <= 600; t += 30) {
    const Vec2 pa = a.position_at(TimePoint{} + seconds(t));
    const Vec2 pb = b.position_at(TimePoint{} + seconds(t));
    EXPECT_DOUBLE_EQ(pa.x, pb.x);
    EXPECT_DOUBLE_EQ(pa.y, pb.y);
  }
}

// A trajectory depends on who walks it, not on how many models were
// built before it.
TEST(RandomWaypoint, TrajectoryIsAFunctionOfKeyAndNode) {
  RandomWaypoint::Params params;
  params.area_max = {200.0, 200.0};
  constexpr std::uint64_t kKey = 0x5eedULL;
  RandomWaypoint first{params, {10.0, 10.0}, kKey, NodeId{17}};
  std::vector<std::unique_ptr<RandomWaypoint>> others;
  for (std::uint64_t n = 1; n <= 1000; ++n) {
    others.push_back(std::make_unique<RandomWaypoint>(
        params, Vec2{10.0, 10.0}, kKey, NodeId{n + 100}));
    others.back()->position_at(TimePoint{} + seconds(600));
  }
  RandomWaypoint again{params, {10.0, 10.0}, kKey, NodeId{17}};
  RandomWaypoint neighbour{params, {10.0, 10.0}, kKey, NodeId{18}};
  int differing = 0;
  for (int t = 0; t <= 3600; t += 60) {
    const TimePoint tp = TimePoint{} + seconds(t);
    const Vec2 p = first.position_at(tp);
    EXPECT_EQ(again.position_at(tp), p) << "t=" << t;
    differing += neighbour.position_at(tp) == p ? 0 : 1;
  }
  // Both stand at the start at t = 0; after that they part.
  EXPECT_EQ(differing, 60);
}

TEST(RandomWaypoint, EarlierQueryReplaysExactly) {
  RandomWaypoint::Params params;
  params.area_max = {300.0, 300.0};
  RandomWaypoint queried{params, {40.0, 40.0}, 99, NodeId{5}};
  queried.position_at(TimePoint{} + seconds(10 * 3600));
  RandomWaypoint fresh{params, {40.0, 40.0}, 99, NodeId{5}};
  for (int t = 0; t <= 3600; t += 7) {
    const TimePoint tp = TimePoint{} + seconds(t);
    EXPECT_EQ(queried.position_at(tp), fresh.position_at(tp)) << "t=" << t;
  }
}

TEST(RandomWaypoint, OutOfOrderQueriesConsistent) {
  RandomWaypoint::Params params;
  RandomWaypoint m{params, {10.0, 10.0}, 9, NodeId{2}};
  const Vec2 late = m.position_at(TimePoint{} + seconds(500));
  const Vec2 early = m.position_at(TimePoint{} + seconds(100));
  const Vec2 late_again = m.position_at(TimePoint{} + seconds(500));
  EXPECT_DOUBLE_EQ(late.x, late_again.x);
  EXPECT_DOUBLE_EQ(late.y, late_again.y);
  // Early query must also be in-area and stable.
  const Vec2 early_again = m.position_at(TimePoint{} + seconds(100));
  EXPECT_DOUBLE_EQ(early.x, early_again.x);
}

TEST(RandomWaypoint, SpeedBounded) {
  RandomWaypoint::Params params;
  params.min_speed_mps = 0.5;
  params.max_speed_mps = 1.5;
  params.max_pause = Duration::zero() + seconds(0.001);
  RandomWaypoint m{params, {50.0, 50.0}, 11, NodeId{4}};
  Vec2 prev = m.position_at(TimePoint{});
  for (int t = 1; t <= 600; ++t) {
    const Vec2 cur = m.position_at(TimePoint{} + seconds(t));
    // Over 1 s the node can move at most max_speed (+ epsilon).
    EXPECT_LE(length(cur - prev), 1.5 + 1e-6);
    prev = cur;
  }
}

TEST(ClusteredCrowd, GeneratesRequestedCount) {
  Rng rng{13};
  const auto positions =
      clustered_crowd(100, 4, {0.0, 0.0}, {100.0, 100.0}, 5.0, rng);
  EXPECT_EQ(positions.size(), 100u);
  for (const Vec2& p : positions) {
    EXPECT_GE(p.x, 0.0);
    EXPECT_LE(p.x, 100.0);
    EXPECT_GE(p.y, 0.0);
    EXPECT_LE(p.y, 100.0);
  }
}

TEST(ClusteredCrowd, ClusteringIsTighterThanUniform) {
  Rng rng{17};
  const auto clustered =
      clustered_crowd(200, 2, {0.0, 0.0}, {1000.0, 1000.0}, 5.0, rng);
  // With 2 tight clusters in a huge area, the mean nearest-neighbour
  // distance is far below the ~uniform expectation (~35 m for n=200).
  double total_nn = 0.0;
  for (const Vec2& p : clustered) {
    double nn = 1e18;
    for (const Vec2& q : clustered) {
      if (&p == &q) continue;
      nn = std::min(nn, length(p - q));
    }
    total_nn += nn;
  }
  EXPECT_LT(total_nn / static_cast<double>(clustered.size()), 10.0);
}

TEST(ClusteredCrowd, ZeroClustersStillWorks) {
  Rng rng{19};
  const auto positions =
      clustered_crowd(10, 0, {0.0, 0.0}, {10.0, 10.0}, 1.0, rng);
  EXPECT_EQ(positions.size(), 10u);
}

}  // namespace
}  // namespace d2dhb::mobility

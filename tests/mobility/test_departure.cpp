#include <gtest/gtest.h>

#include "mobility/mobility.hpp"

namespace d2dhb::mobility {
namespace {

TEST(DepartureMobility, StationaryBeforeDeparture) {
  DepartureMobility m{{10.0, 10.0}, {100.0, 10.0},
                      TimePoint{} + seconds(100), 1.0};
  EXPECT_EQ(m.position_at(TimePoint{}), (Vec2{10.0, 10.0}));
  EXPECT_EQ(m.position_at(TimePoint{} + seconds(100)), (Vec2{10.0, 10.0}));
}

TEST(DepartureMobility, WalksStraightAfterDeparture) {
  DepartureMobility m{{0.0, 0.0}, {90.0, 0.0}, TimePoint{} + seconds(100),
                      1.5};
  // 90 m at 1.5 m/s = 60 s of travel.
  EXPECT_EQ(m.arrival_time(), TimePoint{} + seconds(160));
  const Vec2 halfway = m.position_at(TimePoint{} + seconds(130));
  EXPECT_NEAR(halfway.x, 45.0, 1e-9);
  EXPECT_NEAR(halfway.y, 0.0, 1e-9);
}

TEST(DepartureMobility, StaysAtTarget) {
  DepartureMobility m{{0.0, 0.0}, {10.0, 0.0}, TimePoint{}, 2.0};
  EXPECT_EQ(m.position_at(TimePoint{} + seconds(1000)), (Vec2{10.0, 0.0}));
}

TEST(DepartureMobility, ZeroDistanceIsSafe) {
  DepartureMobility m{{5.0, 5.0}, {5.0, 5.0}, TimePoint{} + seconds(10),
                      1.0};
  EXPECT_EQ(m.position_at(TimePoint{} + seconds(20)), (Vec2{5.0, 5.0}));
}

TEST(OffsetMobility, TracksLeader) {
  LinearMobility leader{{0.0, 0.0}, {1.0, 0.0}};
  OffsetMobility follower{leader, {0.0, 2.0}};
  const Vec2 p = follower.position_at(TimePoint{} + seconds(10));
  EXPECT_DOUBLE_EQ(p.x, 10.0);
  EXPECT_DOUBLE_EQ(p.y, 2.0);
}

TEST(OffsetMobility, GroupStaysCoherent) {
  // A "family" around one random-waypoint leader keeps its shape.
  RandomWaypoint::Params params;
  RandomWaypoint leader{params, {50.0, 50.0}, 5, NodeId{1}};
  OffsetMobility a{leader, {1.0, 0.0}};
  OffsetMobility b{leader, {-1.0, 0.0}};
  for (int t = 0; t <= 600; t += 60) {
    const TimePoint tp = TimePoint{} + seconds(t);
    EXPECT_NEAR(distance(a.position_at(tp), b.position_at(tp)).value, 2.0,
                1e-9);
  }
}

}  // namespace
}  // namespace d2dhb::mobility

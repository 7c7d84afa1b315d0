// World-index correctness: PointGrid / SpatialGrid answers must match a
// naive all-pairs scan exactly (same admitted set, same order rules) on
// random seeded layouts — the property the seeded-run equivalence of
// the whole simulator rests on.
#include "mobility/spatial_grid.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "common/rng.hpp"

namespace d2dhb::mobility {
namespace {

std::vector<Vec2> random_layout(std::size_t n, double area, Rng& rng) {
  std::vector<Vec2> points;
  points.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    points.push_back({rng.uniform(-area / 4, area), rng.uniform(-area / 4, area)});
  }
  return points;
}

// ---------------------------------------------------------------------------
// PointGrid
// ---------------------------------------------------------------------------

TEST(PointGrid, MatchesBruteForceOnRandomLayouts) {
  Rng rng{2024};
  for (int trial = 0; trial < 20; ++trial) {
    const double area = rng.uniform(20.0, 300.0);
    const auto points = random_layout(40, area, rng);
    const Meters cell{rng.uniform(3.0, 40.0)};
    PointGrid grid{cell};
    for (std::size_t i = 0; i < points.size(); ++i) grid.insert(i, points[i]);

    for (int q = 0; q < 10; ++q) {
      const Vec2 center{rng.uniform(-area / 4, area),
                        rng.uniform(-area / 4, area)};
      const Meters radius{rng.uniform(0.0, area / 2)};
      std::vector<std::size_t> expected;
      for (std::size_t i = 0; i < points.size(); ++i) {
        if (distance(center, points[i]).value <= radius.value) {
          expected.push_back(i);
        }
      }
      std::vector<std::size_t> got;
      grid.query_radius(center, radius, got);
      EXPECT_EQ(got, expected) << "trial " << trial << " query " << q;
      EXPECT_EQ(grid.count_within(center, radius), expected.size());
      EXPECT_EQ(grid.any_within(center, radius), !expected.empty());
    }
  }
}

TEST(PointGrid, NearestMatchesLinearScanIncludingTies) {
  Rng rng{7};
  for (int trial = 0; trial < 20; ++trial) {
    const auto points = random_layout(25, 100.0, rng);
    PointGrid grid{Meters{12.0}};
    for (std::size_t i = 0; i < points.size(); ++i) grid.insert(i, points[i]);
    for (int q = 0; q < 10; ++q) {
      const Vec2 center{rng.uniform(0.0, 100.0), rng.uniform(0.0, 100.0)};
      std::size_t best = 0;
      double best_d = distance(center, points[0]).value;
      for (std::size_t i = 1; i < points.size(); ++i) {
        const double d = distance(center, points[i]).value;
        if (d < best_d) {
          best_d = d;
          best = i;
        }
      }
      EXPECT_EQ(grid.nearest(center), best);
    }
  }
}

TEST(PointGrid, NearestBreaksExactTiesByLowestIndex) {
  PointGrid grid{Meters{5.0}};
  grid.insert(3, {10.0, 0.0});
  grid.insert(1, {0.0, 10.0});  // same distance from the origin
  grid.insert(7, {50.0, 50.0});
  EXPECT_EQ(grid.nearest({0.0, 0.0}), 1u);
}

/// First-strictly-closer linear scan: the (distance, index) minimum.
std::size_t linear_nearest(const std::vector<std::pair<std::size_t, Vec2>>& sites,
                           Vec2 center) {
  std::size_t best = sites[0].first;
  double best_d = distance(center, sites[0].second).value;
  for (const auto& [index, at] : sites) {
    const double d = distance(center, at).value;
    if (d < best_d || (d == best_d && index < best)) {
      best_d = d;
      best = index;
    }
  }
  return best;
}

/// The one-site crowd: a lone site at the origin, binned at the
/// scenario's 100 m default, answers queries far outside its cell —
/// up to 20 km out, in all four quadrants and on both axes.
TEST(PointGrid, NearestFindsALoneSiteFromFarAway) {
  PointGrid grid{Meters{100.0}};
  grid.insert(5, {0.0, 0.0});
  for (const double d : {150.0, 999.0, 12000.0, 20000.0}) {
    for (const Vec2 dir : {Vec2{1.0, 0.0}, Vec2{0.6, 0.8}, Vec2{0.0, 1.0},
                           Vec2{-0.8, 0.6}, Vec2{-1.0, 0.0},
                           Vec2{-0.6, -0.8}, Vec2{0.0, -1.0},
                           Vec2{0.8, -0.6}}) {
      const Vec2 center{d * dir.x, d * dir.y};
      EXPECT_EQ(grid.nearest(center), 5u) << center.x << "," << center.y;
      EXPECT_EQ(grid.count_within(center, Meters{d + 1.0}), 1u);
      EXPECT_FALSE(grid.any_within(center, Meters{d - 1.0}));
    }
  }
}

/// Sites clustered in one corner, queries spread over a 40 km square
/// around them (mostly outside the occupied cells): nearest, radius
/// queries and counts all match a linear scan.
TEST(PointGrid, FarQueriesMatchLinearScanForCornerClusteredSites) {
  Rng rng{41};
  for (int trial = 0; trial < 10; ++trial) {
    PointGrid grid{Meters{rng.uniform(20.0, 200.0)}};
    std::vector<std::pair<std::size_t, Vec2>> sites;
    for (std::size_t i = 0; i < 12; ++i) {
      const Vec2 at{rng.uniform(9000.0, 10000.0),
                    rng.uniform(-10000.0, -9000.0)};
      sites.emplace_back(i, at);
      grid.insert(i, at);
    }
    for (int q = 0; q < 40; ++q) {
      const Vec2 center{rng.uniform(-20000.0, 20000.0),
                        rng.uniform(-20000.0, 20000.0)};
      EXPECT_EQ(grid.nearest(center), linear_nearest(sites, center))
          << "trial " << trial << " query " << q;
      const Meters radius{rng.uniform(0.0, 30000.0)};
      std::vector<std::size_t> expected;
      for (const auto& [index, at] : sites) {
        if (distance(center, at).value <= radius.value) {
          expected.push_back(index);
        }
      }
      std::vector<std::size_t> got;
      grid.query_radius(center, radius, got);
      EXPECT_EQ(got, expected) << "trial " << trial << " query " << q;
      EXPECT_EQ(grid.count_within(center, radius), expected.size());
    }
  }
}

/// Two sites mirrored about the y axis are exactly equidistant from any
/// query on it; far from both, the lower index still wins.
TEST(PointGrid, FarExactTiesGoToTheLowestIndex) {
  PointGrid grid{Meters{50.0}};
  const std::vector<std::pair<std::size_t, Vec2>> sites = {
      {4, {100.0, 0.0}}, {2, {-100.0, 0.0}}, {9, {3000.0, 0.0}}};
  for (const auto& [index, at] : sites) grid.insert(index, at);
  for (const double y : {-20000.0, -12000.0, -3000.0, 7000.0, 19000.0}) {
    const Vec2 center{0.0, y};
    EXPECT_EQ(distance(center, sites[0].second).value,
              distance(center, sites[1].second).value);
    EXPECT_EQ(grid.nearest(center), 2u) << "y=" << y;
    EXPECT_EQ(linear_nearest(sites, center), 2u);
  }
}

TEST(PointGrid, EmptyNearestThrows) {
  PointGrid grid{Meters{5.0}};
  EXPECT_THROW(grid.nearest({0.0, 0.0}), std::out_of_range);
}

TEST(PointGrid, NonFiniteNearestThrows) {
  PointGrid grid{Meters{5.0}};
  grid.insert(0, {0.0, 0.0});
  EXPECT_THROW(grid.nearest({std::nan(""), 0.0}), std::invalid_argument);
  EXPECT_THROW(grid.nearest({0.0, -HUGE_VAL}), std::invalid_argument);
}

TEST(PointGrid, RejectsNonPositiveCellSize) {
  EXPECT_THROW(PointGrid{Meters{0.0}}, std::invalid_argument);
  EXPECT_THROW(PointGrid{Meters{-1.0}}, std::invalid_argument);
}

// ---------------------------------------------------------------------------
// SpatialGrid
// ---------------------------------------------------------------------------

struct World {
  std::vector<std::unique_ptr<MobilityModel>> models;
  SpatialGrid grid{Meters{15.0}};

  NodeId add(std::unique_ptr<MobilityModel> model) {
    const NodeId id{models.size() + 1};
    grid.insert(id, *model);
    models.push_back(std::move(model));
    return id;
  }

  /// Naive all-pairs reference: in-range nodes sorted by id.
  std::vector<SpatialGrid::Neighbor> brute(Vec2 center, Meters radius,
                                           TimePoint t, NodeId exclude) {
    std::vector<SpatialGrid::Neighbor> out;
    for (std::size_t i = 0; i < models.size(); ++i) {
      const NodeId id{i + 1};
      if (id == exclude) continue;
      const Meters d = distance(center, models[i]->position_at(t));
      if (d.value <= radius.value) out.push_back({id, d});
    }
    return out;
  }
};

/// The tentpole property: grid radius queries match the naive all-pairs
/// scan on random seeded layouts — static and random-waypoint — across
/// query times, radii, and centers, including result order.
TEST(SpatialGrid, MatchesBruteForceOnStaticAndWaypointLayouts) {
  Rng rng{99};
  for (int trial = 0; trial < 10; ++trial) {
    World world;
    const double area = rng.uniform(40.0, 200.0);
    // Half static, half random-waypoint (the crowd mix).
    for (int i = 0; i < 18; ++i) {
      const Vec2 start{rng.uniform(0.0, area), rng.uniform(0.0, area)};
      if (i % 2 == 0) {
        world.add(std::make_unique<StaticMobility>(start));
      } else {
        RandomWaypoint::Params params;
        params.area_max = {area, area};
        world.add(std::make_unique<RandomWaypoint>(
            params, start, rng.next_u64(), NodeId{world.models.size() + 1}));
      }
    }
    std::vector<SpatialGrid::Neighbor> got;
    // Non-monotonic query times exercise the lazy refresh both ways.
    for (const double t_s : {0.0, 30.0, 30.0, 400.0, 120.0, 3600.0}) {
      const TimePoint t = TimePoint{} + seconds(t_s);
      for (int q = 0; q < 6; ++q) {
        const Vec2 center{rng.uniform(0.0, area), rng.uniform(0.0, area)};
        const Meters radius{rng.uniform(0.0, area / 2)};
        const NodeId exclude{q % 2 == 0 ? 0u : 1u + (q % 18)};
        world.grid.query_radius(center, radius, t, got, exclude);
        const auto expected = world.brute(center, radius, t, exclude);
        ASSERT_EQ(got.size(), expected.size())
            << "trial " << trial << " t=" << t_s << " q=" << q;
        for (std::size_t i = 0; i < got.size(); ++i) {
          EXPECT_EQ(got[i].node, expected[i].node);
          EXPECT_DOUBLE_EQ(got[i].distance.value, expected[i].distance.value);
        }
        EXPECT_EQ(world.grid.count_within(center, radius, t, exclude),
                  expected.size());
      }
    }
  }
}

TEST(SpatialGrid, ResultsAreSortedByNodeId) {
  World world;
  // Insert in a scrambled id order via direct grid calls.
  StaticMobility a{{1.0, 0.0}}, b{{2.0, 0.0}}, c{{3.0, 0.0}};
  world.grid.insert(NodeId{9}, c);
  world.grid.insert(NodeId{2}, a);
  world.grid.insert(NodeId{5}, b);
  std::vector<SpatialGrid::Neighbor> got;
  world.grid.query_radius({0.0, 0.0}, Meters{10.0}, TimePoint{}, got);
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[0].node, NodeId{2});
  EXPECT_EQ(got[1].node, NodeId{5});
  EXPECT_EQ(got[2].node, NodeId{9});
}

TEST(SpatialGrid, RemoveAndReinsert) {
  SpatialGrid grid{Meters{10.0}};
  StaticMobility a{{0.0, 0.0}};
  StaticMobility b{{5.0, 0.0}};
  grid.insert(NodeId{1}, a);
  grid.insert(NodeId{2}, b);
  EXPECT_EQ(grid.size(), 2u);
  grid.remove(NodeId{1});
  EXPECT_FALSE(grid.contains(NodeId{1}));
  EXPECT_EQ(grid.size(), 1u);
  std::vector<SpatialGrid::Neighbor> got;
  grid.query_radius({0.0, 0.0}, Meters{20.0}, TimePoint{}, got);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].node, NodeId{2});
  grid.insert(NodeId{1}, a);
  grid.query_radius({0.0, 0.0}, Meters{20.0}, TimePoint{}, got);
  EXPECT_EQ(got.size(), 2u);
  // Removing an unknown node is a no-op.
  grid.remove(NodeId{42});
  EXPECT_EQ(grid.size(), 2u);
}

/// Sparse NodeIds with static and moving models mixed: removing the
/// middle slot and then the last one, and re-inserting, keeps every
/// query equal to a brute-force scan and the audit green.
TEST(SpatialGrid, SparseIdsSurviveMiddleAndLastRemoval) {
  SpatialGrid grid{Meters{10.0}};
  StaticMobility first{{3.0, 4.0}};
  LinearMobility middle{{0.0, 0.0}, {1.0, 0.5}};
  LinearMobility last{{20.0, -5.0}, {-0.5, 0.25}};
  const NodeId a{1}, b{70000}, c{5000000};
  std::map<std::uint64_t, const MobilityModel*> live;

  auto check = [&](const char* step) {
    SCOPED_TRACE(step);
    EXPECT_EQ(grid.size(), live.size());
    for (const double t_s : {0.0, 15.0, 40.0}) {
      const TimePoint t = TimePoint{} + seconds(t_s);
      EXPECT_NO_THROW(grid.audit(t));
      for (const NodeId exclude : {NodeId::invalid(), a, b, c}) {
        for (const double r : {5.0, 25.0, 60.0}) {
          const Vec2 center{5.0, 2.0};
          std::vector<SpatialGrid::Neighbor> expected;
          for (const auto& [id, model] : live) {
            if (NodeId{id} == exclude) continue;
            const Meters d = distance(center, model->position_at(t));
            if (d.value <= r) expected.push_back({NodeId{id}, d});
          }
          std::vector<SpatialGrid::Neighbor> got;
          grid.query_radius(center, Meters{r}, t, got, exclude);
          ASSERT_EQ(got.size(), expected.size()) << "t=" << t_s << " r=" << r;
          for (std::size_t i = 0; i < got.size(); ++i) {
            EXPECT_EQ(got[i].node, expected[i].node);
            EXPECT_EQ(got[i].distance.value, expected[i].distance.value);
          }
          EXPECT_EQ(grid.count_within(center, Meters{r}, t, exclude),
                    expected.size());
        }
      }
    }
    for (const NodeId id : {a, b, c}) {
      const auto it = live.find(id.value);
      EXPECT_EQ(grid.contains(id), it != live.end());
      EXPECT_EQ(grid.model(id), it == live.end() ? nullptr : it->second);
    }
  };

  grid.insert(a, first);
  grid.insert(b, middle);
  grid.insert(c, last);
  live = {{a.value, &first}, {b.value, &middle}, {c.value, &last}};
  check("insert all");
  grid.remove(b);  // middle slot: the last slot moves into the hole
  live.erase(b.value);
  check("remove middle");
  grid.remove(c);  // now the last slot
  live.erase(c.value);
  check("remove last");
  grid.insert(c, last);
  grid.insert(b, middle);
  live = {{a.value, &first}, {b.value, &middle}, {c.value, &last}};
  check("re-insert");
  grid.insert(b, first);  // re-insert replaces the model in place
  live[b.value] = &first;
  check("replace");
}

TEST(SpatialGrid, MovingNodeCrossesCells) {
  SpatialGrid grid{Meters{10.0}};
  // 2 m/s along +x: at t=0 in cell 0, at t=60 s 120 m away.
  LinearMobility walker{{0.0, 0.0}, {2.0, 0.0}};
  StaticMobility anchor{{0.0, 0.0}};
  grid.insert(NodeId{1}, walker);
  grid.insert(NodeId{2}, anchor);
  std::vector<SpatialGrid::Neighbor> got;
  grid.query_radius({0.0, 0.0}, Meters{30.0}, TimePoint{}, got);
  EXPECT_EQ(got.size(), 2u);
  grid.query_radius({0.0, 0.0}, Meters{30.0}, TimePoint{} + seconds(60), got);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].node, NodeId{2});
  // And it is findable at its new location.
  grid.query_radius({120.0, 0.0}, Meters{5.0}, TimePoint{} + seconds(60), got);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].node, NodeId{1});
}

TEST(SpatialGrid, PositionIsExactNeverCached) {
  SpatialGrid grid{Meters{10.0}};
  LinearMobility walker{{0.0, 0.0}, {1.0, 0.0}};
  grid.insert(NodeId{1}, walker);
  // No query (so no refresh) has happened at t=10, yet position() reads
  // the model directly.
  const Vec2 at = grid.position(NodeId{1}, TimePoint{} + seconds(10));
  EXPECT_DOUBLE_EQ(at.x, 10.0);
  EXPECT_THROW(grid.position(NodeId{3}, TimePoint{}), std::out_of_range);
}

TEST(SpatialGrid, StaticModelsAreDetected) {
  StaticMobility still{{1.0, 1.0}};
  OffsetMobility offset_still{still, {2.0, 0.0}};
  LinearMobility moving{{0.0, 0.0}, {1.0, 0.0}};
  OffsetMobility offset_moving{moving, {2.0, 0.0}};
  EXPECT_TRUE(still.is_static());
  EXPECT_TRUE(offset_still.is_static());
  EXPECT_FALSE(moving.is_static());
  EXPECT_FALSE(offset_moving.is_static());
}

}  // namespace
}  // namespace d2dhb::mobility

// World-index correctness: PointGrid answers must match a naive
// all-pairs scan exactly (same admitted set, same order rules) on
// random seeded layouts, through inserts and removals — the property
// the seeded-run equivalence of the whole simulator rests on.
#include "mobility/spatial_grid.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <map>
#include <stdexcept>
#include <string>
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
// Removal and audit
// ---------------------------------------------------------------------------

/// Brute-force reference over the live points: in-range hits sorted by
/// index, with the same distance arithmetic.
std::vector<PointGrid::Hit> brute_hits(
    const std::map<std::size_t, Vec2>& live, Vec2 center, Meters radius) {
  std::vector<PointGrid::Hit> out;
  for (const auto& [index, at] : live) {
    const Meters d = distance(center, at);
    if (d.value <= radius.value) out.push_back({index, d});
  }
  return out;
}

void expect_same_hits(const std::vector<PointGrid::Hit>& got,
                      const std::vector<PointGrid::Hit>& expected) {
  ASSERT_EQ(got.size(), expected.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].index, expected[i].index);
    EXPECT_EQ(got[i].distance.value, expected[i].distance.value);
  }
}

/// Random inserts and removals (the discovery index's listening
/// toggles): after every step, hit queries, index queries and counts
/// match a brute-force scan over the live points, and the audit passes.
TEST(PointGrid, MatchesBruteForceUnderInsertsAndRemovals) {
  Rng rng{99};
  for (int trial = 0; trial < 10; ++trial) {
    const double area = rng.uniform(40.0, 200.0);
    PointGrid grid{Meters{rng.uniform(3.0, 40.0)}};
    std::map<std::size_t, Vec2> live;
    for (int step = 0; step < 60; ++step) {
      if (!live.empty() && rng.uniform(0.0, 1.0) < 0.4) {
        auto victim = live.begin();
        std::advance(victim, static_cast<std::ptrdiff_t>(
                                 rng.next_u64() % live.size()));
        EXPECT_TRUE(grid.remove(victim->first, victim->second));
        live.erase(victim);
      } else {
        const std::size_t index = 1 + rng.next_u64() % 1000000;
        if (live.count(index) != 0) continue;
        const Vec2 at{rng.uniform(0.0, area), rng.uniform(0.0, area)};
        grid.insert(index, at);
        live[index] = at;
      }
      ASSERT_EQ(grid.size(), live.size());
      ASSERT_NO_THROW(grid.audit()) << "trial " << trial << " step " << step;
      const Vec2 center{rng.uniform(0.0, area), rng.uniform(0.0, area)};
      const Meters radius{rng.uniform(0.0, area / 2)};
      const auto expected = brute_hits(live, center, radius);
      std::vector<PointGrid::Hit> got;
      grid.query_radius(center, radius, got);
      expect_same_hits(got, expected);
      std::vector<std::size_t> indices;
      grid.query_radius(center, radius, indices);
      ASSERT_EQ(indices.size(), expected.size());
      for (std::size_t i = 0; i < indices.size(); ++i) {
        EXPECT_EQ(indices[i], expected[i].index);
      }
      EXPECT_EQ(grid.count_within(center, radius), expected.size());
    }
  }
}

TEST(PointGrid, HitsAreSortedByIndex) {
  PointGrid grid{Meters{15.0}};
  // Inserted in a scrambled index order.
  grid.insert(9, {3.0, 0.0});
  grid.insert(2, {1.0, 0.0});
  grid.insert(5, {2.0, 0.0});
  std::vector<PointGrid::Hit> got;
  grid.query_radius({0.0, 0.0}, Meters{10.0}, got);
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[0].index, 2u);
  EXPECT_EQ(got[1].index, 5u);
  EXPECT_EQ(got[2].index, 9u);
  EXPECT_EQ(got[2].distance.value, 3.0);
}

TEST(PointGrid, RemoveAndReinsert) {
  PointGrid grid{Meters{10.0}};
  grid.insert(1, {0.0, 0.0});
  grid.insert(2, {5.0, 0.0});
  EXPECT_TRUE(grid.remove(1, {0.0, 0.0}));
  EXPECT_FALSE(grid.contains(1, {0.0, 0.0}));
  EXPECT_TRUE(grid.contains(2, {5.0, 0.0}));
  EXPECT_EQ(grid.size(), 1u);
  std::vector<std::size_t> got;
  grid.query_radius({0.0, 0.0}, Meters{20.0}, got);
  EXPECT_EQ(got, std::vector<std::size_t>{2});
  grid.insert(1, {0.0, 0.0});
  grid.query_radius({0.0, 0.0}, Meters{20.0}, got);
  EXPECT_EQ(got, (std::vector<std::size_t>{1, 2}));
  // Unknown indices, and known ones named at another position, are not
  // removed.
  EXPECT_FALSE(grid.remove(42, {0.0, 0.0}));
  EXPECT_FALSE(grid.remove(2, {5.0, 1.0}));
  EXPECT_FALSE(grid.contains(2, {5.0, 1.0}));
  EXPECT_EQ(grid.size(), 2u);
  EXPECT_NO_THROW(grid.audit());
}

/// Sparse indices (NodeId values spread over a large world): removing
/// the middle slot and then the last one, and re-inserting, keeps every
/// query equal to a brute-force scan and the audit green.
TEST(PointGrid, SparseIdsSurviveMiddleAndLastRemoval) {
  PointGrid grid{Meters{10.0}};
  const std::size_t a = 1, b = 70000, c = 5000000;
  const Vec2 at_a{3.0, 4.0}, at_b{0.0, 0.0}, at_c{20.0, -5.0};
  std::map<std::size_t, Vec2> live;

  auto check = [&](const char* step) {
    SCOPED_TRACE(step);
    EXPECT_EQ(grid.size(), live.size());
    EXPECT_NO_THROW(grid.audit());
    for (const double r : {5.0, 25.0, 60.0}) {
      const Vec2 center{5.0, 2.0};
      std::vector<PointGrid::Hit> got;
      grid.query_radius(center, Meters{r}, got);
      expect_same_hits(got, brute_hits(live, center, Meters{r}));
    }
    for (const auto& [index, at] : {std::pair{a, at_a}, std::pair{b, at_b},
                                    std::pair{c, at_c}}) {
      EXPECT_EQ(grid.contains(index, at), live.count(index) != 0);
    }
  };

  grid.insert(a, at_a);
  grid.insert(b, at_b);
  grid.insert(c, at_c);
  live = {{a, at_a}, {b, at_b}, {c, at_c}};
  check("insert all");
  EXPECT_TRUE(grid.remove(b, at_b));  // middle slot: the last moves in
  live.erase(b);
  check("remove middle");
  EXPECT_TRUE(grid.remove(c, at_c));  // now the last slot
  live.erase(c);
  check("remove last");
  grid.insert(c, at_c);
  grid.insert(b, at_b);
  live = {{a, at_a}, {b, at_b}, {c, at_c}};
  check("re-insert");
  EXPECT_TRUE(grid.remove(a, at_a));  // first slot, sharing no bucket
  live.erase(a);
  check("remove first");
}

}  // namespace

/// Test backdoor: PointGrid befriends this struct so the audit tests
/// can corrupt its buckets.
struct PointGrid::Internal {
  /// Bins slot `slot` a second time, in the bucket of `at`.
  static void bin_again(PointGrid& grid, std::uint32_t slot, Vec2 at) {
    grid.buckets_[grid.key_of(at)].push_back(slot);
  }
  /// Leaves an empty bucket behind for the cell of `at`.
  static void empty_bucket(PointGrid& grid, Vec2 at) {
    grid.buckets_[grid.key_of(at)];
  }
};

namespace {

/// Runs the audit and returns its message ("" if it passed).
std::string audit_error(const PointGrid& grid) {
  try {
    grid.audit();
  } catch (const std::logic_error& e) {
    return e.what();
  }
  return "";
}

TEST(PointGridAudit, HealthyGridPassesAcrossRemoval) {
  PointGrid grid{Meters{30.0}};
  EXPECT_EQ(audit_error(grid), "");
  grid.insert(3, {5.0, 5.0});
  grid.insert(900000, {5.0, 6.0});  // same bucket
  grid.insert(17, {95.0, -40.0});
  EXPECT_EQ(audit_error(grid), "");
  ASSERT_TRUE(grid.remove(3, {5.0, 5.0}));
  EXPECT_EQ(audit_error(grid), "");
  ASSERT_TRUE(grid.remove(17, {95.0, -40.0}));  // its bucket empties
  EXPECT_EQ(audit_error(grid), "");
}

TEST(PointGridAudit, MisfiledEntryTripsTheAudit) {
  PointGrid grid{Meters{30.0}};
  grid.insert(3, {5.0, 5.0});
  grid.insert(4, {95.0, 5.0});
  ASSERT_EQ(audit_error(grid), "");
  // Slot 0 also filed in slot 1's bucket: a stale entry a query would
  // visit there.
  PointGrid::Internal::bin_again(grid, 0, {95.0, 5.0});
  EXPECT_NE(audit_error(grid).find("buckets hold 3 entries for 2 points"),
            std::string::npos)
      << audit_error(grid);
}

TEST(PointGridAudit, DuplicateEntryTripsTheAudit) {
  PointGrid grid{Meters{30.0}};
  grid.insert(3, {5.0, 5.0});
  PointGrid::Internal::bin_again(grid, 0, {5.0, 5.0});
  EXPECT_NE(audit_error(grid).find("point 3 is not binned exactly once"),
            std::string::npos)
      << audit_error(grid);
}

TEST(PointGridAudit, EmptyBucketTripsTheAudit) {
  PointGrid grid{Meters{30.0}};
  grid.insert(3, {5.0, 5.0});
  PointGrid::Internal::empty_bucket(grid, {95.0, 5.0});
  EXPECT_NE(audit_error(grid).find("empty bucket"), std::string::npos)
      << audit_error(grid);
}

}  // namespace
}  // namespace d2dhb::mobility

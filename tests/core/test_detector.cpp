#include "core/detector.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <set>
#include <vector>

namespace d2dhb::core {
namespace {

d2d::DiscoveredPeer peer(std::uint64_t id, double distance_m,
                         bool offers_relay = true,
                         std::uint32_t capacity = 7) {
  d2d::DiscoveredPeer p;
  p.node = NodeId{id};
  p.estimated_distance = Meters{distance_m};
  p.advert = d2d::RelayAdvert{offers_relay, capacity};
  return p;
}

/// One match by UE #1 at time zero under world key 1.
std::optional<d2d::DiscoveredPeer> match(
    const MatchPolicy& policy, const std::vector<d2d::DiscoveredPeer>& peers) {
  return match_relay(policy, peers, 1, NodeId{1}, TimePoint{});
}

TEST(Detector, PicksNearestRelay) {
  const auto choice =
      match(MatchPolicy{}, {peer(1, 5.0), peer(2, 2.0), peer(3, 9.0)});
  ASSERT_TRUE(choice.has_value());
  EXPECT_EQ(choice->node, NodeId{2});
}

TEST(Detector, IgnoresNonRelays) {
  const auto choice = match(
      MatchPolicy{}, {peer(1, 1.0, /*offers_relay=*/false), peer(2, 8.0)});
  ASSERT_TRUE(choice.has_value());
  EXPECT_EQ(choice->node, NodeId{2});
}

TEST(Detector, RejectsZeroCapacityWhenRequired) {
  EXPECT_FALSE(match(MatchPolicy{}, {peer(1, 1.0, true, 0)}).has_value());
}

TEST(Detector, AcceptsZeroCapacityWhenNotRequired) {
  MatchPolicy policy;
  policy.require_capacity = false;
  EXPECT_TRUE(match(policy, {peer(1, 1.0, true, 0)}).has_value());
}

TEST(Detector, EnforcesMaxDistancePrejudgment) {
  MatchPolicy policy;
  policy.max_distance = Meters{10.0};
  EXPECT_FALSE(match(policy, {peer(1, 15.0)}).has_value());
  EXPECT_TRUE(match(policy, {peer(1, 9.0)}).has_value());
}

TEST(Detector, EmptyDiscoveryMeansCellular) {
  EXPECT_FALSE(match(MatchPolicy{}, {}).has_value());
}

TEST(Detector, FirstStrategyKeepsDiscoveryOrder) {
  MatchPolicy policy;
  policy.strategy = MatchStrategy::first;
  const auto choice = match(policy, {peer(3, 9.0), peer(1, 1.0)});
  ASSERT_TRUE(choice.has_value());
  EXPECT_EQ(choice->node, NodeId{3});
}

TEST(Detector, RandomStrategyPicksQualifyingRelays) {
  MatchPolicy policy;
  policy.strategy = MatchStrategy::random;
  const std::vector<d2d::DiscoveredPeer> peers{peer(1, 2.0), peer(2, 4.0),
                                               peer(3, 6.0)};
  std::set<std::uint64_t> chosen;
  for (int i = 0; i < 200; ++i) {
    const TimePoint now = TimePoint{} + seconds(i);
    const auto c = match_relay(policy, peers, 7, NodeId{5}, now);
    ASSERT_TRUE(c.has_value());
    chosen.insert(c->node.value);
    // The pick is keyed by (key, UE, time): asking again repeats it.
    EXPECT_EQ(match_relay(policy, peers, 7, NodeId{5}, now)->node, c->node);
  }
  EXPECT_EQ(chosen.size(), 3u);  // all three get picked eventually
}

TEST(BreakEven, MatchesAnalyticCrossover) {
  const d2d::D2dEnergyProfile profile;
  // With the calibrated defaults: 73.09·(1 + 0.0577·(d-1)²) = 598.3
  //  => d ≈ 1 + sqrt((598.3/73.09 - 1)/0.0577) ≈ 12.1 m.
  const Meters d = break_even_distance(profile, MicroAmpHours{598.3},
                                       Bytes{54});
  EXPECT_NEAR(d.value, 12.1, 0.2);
  // Sanity: sending at the break-even distance costs ~the cellular cost.
  EXPECT_NEAR(profile.send_charge(Bytes{54}, d).value, 598.3, 1.0);
}

TEST(BreakEven, ZeroWhenD2dNeverWins) {
  const d2d::D2dEnergyProfile profile;
  EXPECT_DOUBLE_EQ(
      break_even_distance(profile, MicroAmpHours{10.0}, Bytes{54}).value,
      0.0);
}

TEST(BreakEven, GrowsWithCellularCost) {
  const d2d::D2dEnergyProfile profile;
  const double cheap =
      break_even_distance(profile, MicroAmpHours{300.0}, Bytes{54}).value;
  const double costly =
      break_even_distance(profile, MicroAmpHours{900.0}, Bytes{54}).value;
  EXPECT_LT(cheap, costly);
}

}  // namespace
}  // namespace d2dhb::core

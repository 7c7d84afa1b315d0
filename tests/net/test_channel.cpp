#include "net/channel.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

namespace d2dhb::net {
namespace {

UplinkBundle bundle_of(std::uint64_t node) {
  UplinkBundle b;
  b.sender = NodeId{node};
  HeartbeatMessage m;
  m.id = MessageId{node};
  m.origin = NodeId{node};
  m.size = Bytes{54};
  b.messages = {m};
  return b;
}

TEST(Channel, DeliversAfterLatency) {
  sim::Simulator sim;
  Channel ch{sim, Channel::Params{0.0}, 1};
  TimePoint delivered_at{};
  ch.set_receiver([&](const UplinkBundle&) { delivered_at = sim.now(); });
  EXPECT_TRUE(ch.send(bundle_of(1)));
  sim.run();
  EXPECT_EQ(delivered_at, TimePoint{} + milliseconds(50));
  EXPECT_EQ(ch.sent(), 1u);
  EXPECT_EQ(ch.delivered(), 1u);
  EXPECT_EQ(ch.dropped(), 0u);
}

TEST(Channel, LossDropsDeterministically) {
  sim::Simulator sim;
  Channel ch{sim, Channel::Params{1.0}, 2};
  int received = 0;
  ch.set_receiver([&](const UplinkBundle&) { ++received; });
  EXPECT_FALSE(ch.send(bundle_of(1)));
  sim.run();
  EXPECT_EQ(received, 0);
  EXPECT_EQ(ch.dropped(), 1u);
}

TEST(Channel, PartialLossApproximatesRate) {
  sim::Simulator sim;
  Channel ch{sim, Channel::Params{0.25}, 3};
  int received = 0;
  ch.set_receiver([&](const UplinkBundle&) { ++received; });
  const int n = 4000;
  // Distinct bundles: the loss draw is keyed by sender, time and
  // first message, so resending one bundle at one instant repeats it.
  for (int i = 0; i < n; ++i) {
    ch.send(bundle_of(static_cast<std::uint64_t>(i) + 1));
  }
  sim.run();
  EXPECT_NEAR(static_cast<double>(received) / n, 0.75, 0.03);
  EXPECT_EQ(ch.delivered() + ch.dropped(), static_cast<std::uint64_t>(n));
}

// A bundle's fate is keyed by who sent it, when, and its first
// message, so it cannot depend on which strip's kernel sends it.
TEST(Channel, LossIsTheSameFromAnyStrip) {
  const auto drops_from = [](std::uint32_t shard) {
    sim::Simulator sim{4};
    Channel ch{sim, Channel::Params{0.5}, 0xc0ffee};
    sim::ShardGuard guard(sim, shard);
    std::vector<std::uint64_t> dropped;
    for (std::uint64_t i = 1; i <= 200; ++i) {
      if (!ch.send(bundle_of(i))) dropped.push_back(i);
    }
    EXPECT_EQ(ch.dropped(), dropped.size());
    return dropped;
  };
  const std::vector<std::uint64_t> from_first = drops_from(0);
  EXPECT_EQ(drops_from(3), from_first);
  EXPECT_GT(from_first.size(), 60u);
  EXPECT_LT(from_first.size(), 140u);
}

TEST(Channel, NoReceiverIsSafe) {
  sim::Simulator sim;
  Channel ch{sim, Channel::Params{}, 4};
  ch.send(bundle_of(1));
  sim.run();  // must not crash
  EXPECT_EQ(ch.delivered(), 1u);
}

TEST(Channel, PreservesBundleContents) {
  sim::Simulator sim;
  Channel ch{sim, Channel::Params{}, 5};
  UplinkBundle got;
  ch.set_receiver([&](const UplinkBundle& b) { got = b; });
  UplinkBundle b = bundle_of(7);
  b.messages.push_back(b.messages.front());
  ch.send(b);
  sim.run();
  EXPECT_EQ(got.sender, NodeId{7});
  EXPECT_EQ(got.messages.size(), 2u);
}

}  // namespace
}  // namespace d2dhb::net

#include "radio/base_station.hpp"

#include <gtest/gtest.h>

namespace d2dhb::radio {
namespace {

net::UplinkBundle bundle_with(std::initializer_list<std::uint64_t> origins) {
  net::UplinkBundle b;
  b.sender = NodeId{*origins.begin()};
  for (const auto origin : origins) {
    b.messages.push_back(net::make_heartbeat(NodeId{origin}, AppId{origin},
                                             1, Bytes{54}, seconds(300),
                                             TimePoint{}));
  }
  return b;
}

TEST(BaseStation, ForwardsToServer) {
  sim::Simulator sim;
  net::ImServer server{sim};
  BaseStation bs{sim, server, net::Channel::Params{0.0},
                 1};
  bs.receive(bundle_with({1, 2, 3}));
  sim.run();
  EXPECT_EQ(server.totals().delivered, 3u);
  EXPECT_EQ(bs.bundles_received(), 1u);
  EXPECT_EQ(bs.heartbeats_received(), 3u);
}

TEST(BaseStation, CountsBytesWithAggregationHeaders) {
  sim::Simulator sim;
  net::ImServer server{sim};
  BaseStation bs{sim, server, net::Channel::Params{}, 1};
  bs.receive(bundle_with({1, 2}));
  EXPECT_EQ(bs.bytes_received(),
            2u * 54u + 2u * net::UplinkBundle::kAggregationHeader.value);
}

TEST(BaseStation, LossyBackhaulDropsDeliveries) {
  sim::Simulator sim;
  net::ImServer server{sim};
  BaseStation bs{sim, server, net::Channel::Params{1.0},
                 1};
  bs.receive(bundle_with({1}));
  sim.run();
  EXPECT_EQ(server.totals().delivered, 0u);
  EXPECT_EQ(bs.bundles_received(), 1u);  // the BS still saw it
}

TEST(BaseStation, SignalingCounterIsShared) {
  sim::Simulator sim;
  net::ImServer server{sim};
  BaseStation bs{sim, server, net::Channel::Params{}, 1};
  bs.signaling().strip(0).record(sim.now(), NodeId{1},
                                 L3MessageType::rrc_connection_request);
  EXPECT_EQ(bs.signaling().total(), 1u);
}

}  // namespace
}  // namespace d2dhb::radio

#include "d2d/wifi_direct.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>

#include "energy/energy_meter.hpp"
#include "sim/simulator.hpp"

namespace d2dhb::d2d {
namespace {

struct TestPhone {
  TestPhone(sim::Simulator& sim, WifiDirectMedium& medium, std::uint64_t id,
            std::unique_ptr<mobility::MobilityModel> mob)
      : meter(sim),
        mobility(std::move(mob)),
        radio(sim, NodeId{id}, medium, *mobility, meter, D2dEnergyProfile{},
              Rng{id}) {}

  static std::unique_ptr<TestPhone> at(sim::Simulator& sim,
                                       WifiDirectMedium& medium,
                                       std::uint64_t id, double x, double y) {
    return std::make_unique<TestPhone>(
        sim, medium, id,
        std::make_unique<mobility::StaticMobility>(mobility::Vec2{x, y}));
  }

  energy::EnergyMeter meter;
  std::unique_ptr<mobility::MobilityModel> mobility;
  WifiDirectRadio radio;
};

net::HeartbeatMessage heartbeat(std::uint64_t id, std::uint64_t origin) {
  net::HeartbeatMessage m;
  m.id = MessageId{id};
  m.origin = NodeId{origin};
  m.app = AppId{origin};
  m.size = net::kStandardHeartbeatSize;
  m.period = seconds(270);
  m.expiry = seconds(270);
  return m;
}

class WifiDirectTest : public ::testing::Test {
 protected:
  WifiDirectTest() : medium_(sim_, nodes_, WifiDirectMedium::Params{}, Rng{77}) {}

  sim::Simulator sim_;
  world::NodeTable nodes_;
  WifiDirectMedium medium_;
};

TEST_F(WifiDirectTest, DiscoveryChargesBothSidesPerTableIII) {
  auto ue = TestPhone::at(sim_, medium_, 1, 0, 0);
  auto relay = TestPhone::at(sim_, medium_, 2, 1, 0);
  relay->radio.set_listening(true);
  bool done = false;
  ue->radio.start_discovery(
      [&](const std::vector<DiscoveredPeer>& peers) {
        done = true;
        ASSERT_EQ(peers.size(), 1u);
        EXPECT_EQ(peers[0].node, NodeId{2});
      });
  sim_.run_until(sim_.now() + seconds(10));
  EXPECT_TRUE(done);
  EXPECT_NEAR(ue->radio.radio_charge().value, 132.24, 0.01);
  EXPECT_NEAR(relay->radio.radio_charge().value, 122.50, 0.01);
}

TEST_F(WifiDirectTest, ConnectFormsGroupWithIntentArbitration) {
  auto ue = TestPhone::at(sim_, medium_, 1, 0, 0);
  auto relay = TestPhone::at(sim_, medium_, 2, 1, 0);
  relay->radio.set_listening(true);
  relay->radio.set_group_owner_intent(kMaxGroupOwnerIntent);
  ue->radio.set_group_owner_intent(0);

  GroupId group{};
  ue->radio.connect(NodeId{2}, [&](Result<GroupId> r) {
    ASSERT_TRUE(r.ok());
    group = r.value();
  });
  sim_.run_until(sim_.now() + seconds(4));
  EXPECT_TRUE(group.valid());
  EXPECT_TRUE(ue->radio.connected_to(NodeId{2}));
  EXPECT_TRUE(relay->radio.connected_to(NodeId{1}));
  EXPECT_TRUE(relay->radio.is_group_owner());
  EXPECT_FALSE(ue->radio.is_group_owner());
  EXPECT_EQ(ue->radio.group(), relay->radio.group());
}

TEST_F(WifiDirectTest, ConnectionEnergyMatchesTableIII) {
  auto ue = TestPhone::at(sim_, medium_, 1, 0, 0);
  auto relay = TestPhone::at(sim_, medium_, 2, 1, 0);
  ue->radio.connect(NodeId{2}, [](Result<GroupId>) {});
  sim_.run_until(sim_.now() + seconds(4));
  // Idle-connected draw starts after setup; allow a small margin.
  EXPECT_NEAR(ue->radio.radio_charge().value, 63.74, 1.0);
  EXPECT_NEAR(relay->radio.radio_charge().value, 60.29, 1.0);
}

TEST_F(WifiDirectTest, ConnectToSelfIsRejected) {
  auto ue = TestPhone::at(sim_, medium_, 1, 0, 0);
  bool rejected = false;
  ue->radio.connect(NodeId{1}, [&](Result<GroupId> r) {
    rejected = !r.ok() && r.error().code == Errc::rejected;
  });
  EXPECT_TRUE(rejected);
  EXPECT_EQ(ue->radio.link_count(), 0u);
  // No energy was spent on the refused attempt.
  sim_.run_until(sim_.now() + seconds(5));
  EXPECT_DOUBLE_EQ(ue->radio.radio_charge().value, 0.0);
}

TEST_F(WifiDirectTest, ConnectToUnknownPeerFails) {
  auto ue = TestPhone::at(sim_, medium_, 1, 0, 0);
  bool failed = false;
  ue->radio.connect(NodeId{42}, [&](Result<GroupId> r) {
    failed = !r.ok() && r.error().code == Errc::not_found;
  });
  EXPECT_TRUE(failed);
}

TEST_F(WifiDirectTest, ConnectBeyondRangeFails) {
  auto ue = TestPhone::at(sim_, medium_, 1, 0, 0);
  auto far = TestPhone::at(sim_, medium_, 2, 50, 0);
  bool failed = false;
  far->radio.set_listening(true);
  ue->radio.connect(NodeId{2}, [&](Result<GroupId> r) {
    failed = !r.ok() && r.error().code == Errc::out_of_range;
  });
  EXPECT_TRUE(failed);
}

TEST_F(WifiDirectTest, ConnectIsIdempotentWhenAlreadyLinked) {
  auto ue = TestPhone::at(sim_, medium_, 1, 0, 0);
  auto relay = TestPhone::at(sim_, medium_, 2, 1, 0);
  GroupId first{};
  ue->radio.connect(NodeId{2}, [&](Result<GroupId> r) { first = r.value(); });
  sim_.run_until(sim_.now() + seconds(4));
  GroupId second{};
  ue->radio.connect(NodeId{2},
                    [&](Result<GroupId> r) { second = r.value(); });
  EXPECT_EQ(first, second);
}

TEST_F(WifiDirectTest, SendDeliversHeartbeatAndChargesBothSides) {
  auto ue = TestPhone::at(sim_, medium_, 1, 0, 0);
  auto relay = TestPhone::at(sim_, medium_, 2, 1, 0);
  ue->radio.connect(NodeId{2}, [](Result<GroupId>) {});
  sim_.run_until(sim_.now() + seconds(4));

  const double ue_before = ue->radio.radio_charge().value;
  const double relay_before = relay->radio.radio_charge().value;
  net::HeartbeatMessage received;
  relay->radio.set_receive_handler(
      [&](const net::D2dPayload& p, NodeId from) {
        received = std::get<net::HeartbeatMessage>(p);
        EXPECT_EQ(from, NodeId{1});
      });
  bool sent_ok = false;
  ue->radio.send(NodeId{2}, net::D2dPayload{heartbeat(5, 1)},
                 [&](Status s) { sent_ok = s.ok(); });
  sim_.run_until(sim_.now() + seconds(4));
  EXPECT_TRUE(sent_ok);
  EXPECT_EQ(received.id, MessageId{5});
  EXPECT_NEAR(ue->radio.radio_charge().value - ue_before, 73.09, 1.5);
  EXPECT_NEAR(relay->radio.radio_charge().value - relay_before, 131.3, 1.5);
}

TEST_F(WifiDirectTest, SendWithoutLinkFails) {
  auto ue = TestPhone::at(sim_, medium_, 1, 0, 0);
  auto relay = TestPhone::at(sim_, medium_, 2, 1, 0);
  bool failed = false;
  ue->radio.send(NodeId{2}, net::D2dPayload{heartbeat(1, 1)},
                 [&](Status s) {
                   failed = !s.ok() && s.error().code == Errc::disconnected;
                 });
  EXPECT_TRUE(failed);
}

// Kernels are independent only because a transfer always completes on
// the kernel that both ends live on. A send issued from another kernel
// than the peer's must fail loudly instead of scheduling across.
TEST(WifiDirectKernels, CrossKernelTransferThrows) {
  sim::Simulator sim{2};
  world::NodeTable nodes;
  WifiDirectMedium medium(sim, nodes, WifiDirectMedium::Params{}, Rng{77});
  // Both phones are homed on strip 0 (the table's default home).
  auto ue = TestPhone::at(sim, medium, 1, 0, 0);
  auto relay = TestPhone::at(sim, medium, 2, 1, 0);
  bool linked = false;
  ue->radio.connect(NodeId{2}, [&](Result<GroupId> r) { linked = r.ok(); });
  sim.run_until(sim.now() + seconds(4));
  ASSERT_TRUE(linked);

  bool called = false;
  {
    sim::ShardGuard on_kernel_1(sim, 1);
    EXPECT_THROW(ue->radio.send(NodeId{2}, net::D2dPayload{heartbeat(1, 1)},
                                [&](Status) { called = true; }),
                 std::logic_error);
  }
  EXPECT_FALSE(called);
  EXPECT_EQ(sim.kernel(1).pending_events(), 0u);

  // From the peer's own kernel the same send goes through.
  bool sent_ok = false;
  ue->radio.send(NodeId{2}, net::D2dPayload{heartbeat(2, 1)},
                 [&](Status s) { sent_ok = s.ok(); });
  sim.run_until(sim.now() + seconds(4));
  EXPECT_TRUE(sent_ok);
}

TEST_F(WifiDirectTest, FeedbackAckTravelsAsControlFrame) {
  auto ue = TestPhone::at(sim_, medium_, 1, 0, 0);
  auto relay = TestPhone::at(sim_, medium_, 2, 1, 0);
  ue->radio.connect(NodeId{2}, [](Result<GroupId>) {});
  sim_.run_until(sim_.now() + seconds(4));

  net::FeedbackAck got;
  ue->radio.set_receive_handler([&](const net::D2dPayload& p, NodeId) {
    got = std::get<net::FeedbackAck>(p);
  });
  net::FeedbackAck ack;
  ack.relay = NodeId{2};
  ack.delivered = {MessageId{1}, MessageId{2}};
  relay->radio.send(NodeId{1}, net::D2dPayload{ack}, [](Status) {});
  sim_.run_until(sim_.now() + seconds(1));
  EXPECT_EQ(got.delivered.size(), 2u);
  EXPECT_EQ(got.relay, NodeId{2});
}

TEST_F(WifiDirectTest, MovingOutOfRangeBreaksLink) {
  auto ue = std::make_unique<TestPhone>(
      sim_, medium_, 1,
      std::make_unique<mobility::LinearMobility>(
          mobility::Vec2{0.0, 0.0}, mobility::Vec2{2.0, 0.0}));  // 2 m/s
  auto relay = TestPhone::at(sim_, medium_, 2, 0, 0);
  ue->radio.connect(NodeId{2}, [](Result<GroupId>) {});
  sim_.run_until(sim_.now() + seconds(4));
  ASSERT_TRUE(ue->radio.connected_to(NodeId{2}));

  NodeId lost{};
  ue->radio.set_disconnect_handler([&](NodeId peer) { lost = peer; });
  // Range is 30 m; at 2 m/s the link must break by t ~ 16 s.
  sim_.run_until(sim_.now() + seconds(20));
  EXPECT_EQ(lost, NodeId{2});
  EXPECT_FALSE(ue->radio.connected_to(NodeId{2}));
  EXPECT_FALSE(relay->radio.connected_to(NodeId{1}));
  EXPECT_EQ(ue->radio.link_count(), 0u);
}

TEST_F(WifiDirectTest, ExplicitDisconnectNotifiesBothSides) {
  auto ue = TestPhone::at(sim_, medium_, 1, 0, 0);
  auto relay = TestPhone::at(sim_, medium_, 2, 1, 0);
  ue->radio.connect(NodeId{2}, [](Result<GroupId>) {});
  sim_.run_until(sim_.now() + seconds(4));

  NodeId ue_lost{}, relay_lost{};
  ue->radio.set_disconnect_handler([&](NodeId p) { ue_lost = p; });
  relay->radio.set_disconnect_handler([&](NodeId p) { relay_lost = p; });
  ue->radio.disconnect(NodeId{2});
  EXPECT_EQ(ue_lost, NodeId{2});
  EXPECT_EQ(relay_lost, NodeId{1});
}

TEST_F(WifiDirectTest, GroupOwnerServesMultipleClients) {
  auto relay = TestPhone::at(sim_, medium_, 1, 0, 0);
  relay->radio.set_group_owner_intent(kMaxGroupOwnerIntent);
  auto ue_a = TestPhone::at(sim_, medium_, 2, 1, 0);
  auto ue_b = TestPhone::at(sim_, medium_, 3, 0, 1);
  ue_a->radio.connect(NodeId{1}, [](Result<GroupId>) {});
  sim_.run_until(sim_.now() + seconds(4));
  ue_b->radio.connect(NodeId{1}, [](Result<GroupId>) {});
  sim_.run_until(sim_.now() + seconds(4));
  EXPECT_EQ(relay->radio.link_count(), 2u);
  EXPECT_TRUE(relay->radio.is_group_owner());
  // Both clients joined the same group.
  EXPECT_EQ(ue_a->radio.group(), ue_b->radio.group());
}

TEST_F(WifiDirectTest, IdleConnectedDrawAccumulatesWhileLinked) {
  auto ue = TestPhone::at(sim_, medium_, 1, 0, 0);
  auto relay = TestPhone::at(sim_, medium_, 2, 1, 0);
  ue->radio.connect(NodeId{2}, [](Result<GroupId>) {});
  sim_.run_until(sim_.now() + seconds(4));
  const double before = ue->radio.radio_charge().value;
  sim_.run_until(sim_.now() + seconds(3600));
  // 1 mA for 1 h = 1000 µAh.
  EXPECT_NEAR(ue->radio.radio_charge().value - before, 1000.0, 1.0);
  ue->radio.disconnect(NodeId{2});
  const double after_disconnect = ue->radio.radio_charge().value;
  sim_.run_until(sim_.now() + seconds(3600));
  EXPECT_NEAR(ue->radio.radio_charge().value - after_disconnect, 0.0, 1e-6);
}

}  // namespace
}  // namespace d2dhb::d2d

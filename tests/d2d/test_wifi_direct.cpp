#include "d2d/wifi_direct.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <vector>

#include "energy/energy_meter.hpp"
#include "sim/simulator.hpp"

namespace d2dhb::d2d {
namespace {

struct TestPhone {
  TestPhone(sim::Simulator& sim, WifiDirectMedium& medium, std::uint64_t id,
            std::unique_ptr<mobility::MobilityModel> mob)
      : meter(sim),
        mobility(std::move(mob)),
        radio(sim, NodeId{id}, medium, *mobility, meter,
              shared_default_energy_profile()) {}

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

net::HeartbeatMessage heartbeat(std::uint64_t seq, std::uint64_t origin) {
  return net::make_heartbeat(NodeId{origin}, AppId{origin}, seq,
                             net::kStandardHeartbeatSize, seconds(270),
                             TimePoint{});
}

class WifiDirectTest : public ::testing::Test {
 protected:
  WifiDirectTest() : medium_(sim_, nodes_, WifiDirectMedium::Params{}, 77) {}

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

// --- One scan per discovery ------------------------------------------
// The responders charged at the start of the window are the answers the
// callback gets at its end, minus what changed during the window.

std::vector<NodeId> discover(sim::Simulator& sim, WifiDirectRadio& radio) {
  std::vector<NodeId> delivered;
  bool done = false;
  radio.start_discovery([&](const std::vector<DiscoveredPeer>& peers) {
    done = true;
    for (const DiscoveredPeer& peer : peers) delivered.push_back(peer.node);
  });
  sim.run_until(sim.now() + seconds(10));
  EXPECT_TRUE(done);
  return delivered;
}

TEST_F(WifiDirectTest, RelayThatStopsListeningMidWindowIsNotDelivered) {
  auto ue = TestPhone::at(sim_, medium_, 1, 0, 0);
  auto quits = TestPhone::at(sim_, medium_, 2, 3, 0);
  auto stays = TestPhone::at(sim_, medium_, 3, 0, 3);
  quits->radio.set_listening(true);
  stays->radio.set_listening(true);
  sim_.schedule_after(seconds(4),
                      [&] { quits->radio.set_listening(false); });
  EXPECT_EQ(discover(sim_, ue->radio), (std::vector<NodeId>{NodeId{3}}));
  // It answered the probe, so it still paid for the response.
  EXPECT_NEAR(quits->radio.radio_charge().value, 122.50, 0.01);
}

TEST_F(WifiDirectTest, PeerThatWalksOutOfRangeMidWindowIsDropped) {
  auto ue = TestPhone::at(sim_, medium_, 1, 0, 0);
  // 20 m away at the probe, 36 m away when the 8 s window closes.
  auto walker = std::make_unique<TestPhone>(
      sim_, medium_, 2,
      std::make_unique<mobility::LinearMobility>(mobility::Vec2{20.0, 0.0},
                                                 mobility::Vec2{2.0, 0.0}));
  auto still = TestPhone::at(sim_, medium_, 3, 5, 0);
  walker->radio.set_listening(true);
  still->radio.set_listening(true);
  EXPECT_EQ(discover(sim_, ue->radio), (std::vector<NodeId>{NodeId{3}}));
  EXPECT_NEAR(walker->radio.radio_charge().value, 122.50, 0.01);
}

TEST(WifiDirectDiscovery, ChargedRespondersAreTheDeliveredList) {
  sim::Simulator sim;
  world::NodeTable nodes;
  WifiDirectMedium::Params params;
  params.discovery_miss_probability = 0.4;
  WifiDirectMedium medium(sim, nodes, params, 2024);
  auto ue = TestPhone::at(sim, medium, 1, 0, 0);
  std::vector<std::unique_ptr<TestPhone>> relays;
  for (std::uint64_t id = 2; id <= 13; ++id) {
    relays.push_back(
        TestPhone::at(sim, medium, id, 2.0 * static_cast<double>(id), 1.0));
    relays.back()->radio.set_listening(true);
  }
  auto silent = TestPhone::at(sim, medium, 20, 1, 1);  // in range, mute
  auto far = TestPhone::at(sim, medium, 21, 90, 0);    // listening, far
  far->radio.set_listening(true);

  const std::vector<NodeId> delivered = discover(sim, ue->radio);
  std::vector<NodeId> charged;
  for (const auto& relay : relays) {
    if (relay->radio.radio_charge().value > 0.0) {
      EXPECT_NEAR(relay->radio.radio_charge().value, 122.50, 0.01);
      charged.push_back(relay->radio.owner());
    }
  }
  EXPECT_EQ(charged, delivered);
  // The keyed misses dropped some in-range relays and kept others.
  EXPECT_GT(delivered.size(), 0u);
  EXPECT_LT(delivered.size(), relays.size());
  EXPECT_DOUBLE_EQ(silent->radio.radio_charge().value, 0.0);
  EXPECT_DOUBLE_EQ(far->radio.radio_charge().value, 0.0);
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

TEST_F(WifiDirectTest, RequiresAnEnergyProfile) {
  energy::EnergyMeter meter{sim_};
  const mobility::StaticMobility place{mobility::Vec2{0.0, 0.0}};
  EXPECT_THROW((WifiDirectRadio{sim_, NodeId{1}, medium_, place, meter,
                                nullptr}),
               std::invalid_argument);
  EXPECT_EQ(medium_.radio(NodeId{1}), nullptr);
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
  EXPECT_TRUE(
      ue->radio.send(NodeId{2}, net::D2dPayload{heartbeat(5, 1)}).ok());
  sim_.run_until(sim_.now() + seconds(4));
  EXPECT_EQ(received.id, heartbeat(5, 1).id);
  EXPECT_NEAR(ue->radio.radio_charge().value - ue_before, 73.09, 1.5);
  EXPECT_NEAR(relay->radio.radio_charge().value - relay_before, 131.3, 1.5);
}

TEST_F(WifiDirectTest, SendWithoutLinkFails) {
  auto ue = TestPhone::at(sim_, medium_, 1, 0, 0);
  auto relay = TestPhone::at(sim_, medium_, 2, 1, 0);
  bool received = false;
  relay->radio.set_receive_handler(
      [&](const net::D2dPayload&, NodeId) { received = true; });
  const Status status =
      ue->radio.send(NodeId{2}, net::D2dPayload{heartbeat(1, 1)});
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.error().code, Errc::disconnected);
  sim_.run_until(sim_.now() + seconds(4));
  EXPECT_FALSE(received);
}

// Kernels are independent only because a transfer always completes on
// the kernel that both ends live on. A send issued from another kernel
// than the peer's must fail loudly instead of scheduling across.
TEST(WifiDirectKernels, CrossKernelTransferThrows) {
  sim::Simulator sim{2};
  world::NodeTable nodes;
  WifiDirectMedium medium(sim, nodes, WifiDirectMedium::Params{}, 77);
  // Both phones are homed on strip 0 (the table's default home).
  auto ue = TestPhone::at(sim, medium, 1, 0, 0);
  auto relay = TestPhone::at(sim, medium, 2, 1, 0);
  bool linked = false;
  ue->radio.connect(NodeId{2}, [&](Result<GroupId> r) { linked = r.ok(); });
  sim.run_until(sim.now() + seconds(4));
  ASSERT_TRUE(linked);

  int received = 0;
  relay->radio.set_receive_handler(
      [&](const net::D2dPayload&, NodeId) { ++received; });
  {
    sim::ShardGuard on_kernel_1(sim, 1);
    EXPECT_THROW(ue->radio.send(NodeId{2}, net::D2dPayload{heartbeat(1, 1)}),
                 std::logic_error);
  }
  EXPECT_EQ(sim.kernel(1).pending_events(), 0u);

  // From the peer's own kernel the same send goes through.
  EXPECT_TRUE(
      ue->radio.send(NodeId{2}, net::D2dPayload{heartbeat(2, 1)}).ok());
  sim.run_until(sim.now() + seconds(4));
  EXPECT_EQ(received, 1);
}

TEST_F(WifiDirectTest, FeedbackAckTravelsAsControlFrame) {
  auto ue = TestPhone::at(sim_, medium_, 1, 0, 0);
  auto relay = TestPhone::at(sim_, medium_, 2, 1, 0);
  ue->radio.connect(NodeId{2}, [](Result<GroupId>) {});
  sim_.run_until(sim_.now() + seconds(4));

  net::FeedbackAck got;
  NodeId sender;
  ue->radio.set_receive_handler([&](const net::D2dPayload& p, NodeId from) {
    got = std::get<net::FeedbackAck>(p);
    sender = from;
  });
  net::FeedbackAck ack;
  ack.delivered = {MessageId{1}, MessageId{2}};
  EXPECT_TRUE(relay->radio.send(NodeId{1}, net::D2dPayload{ack}).ok());
  sim_.run_until(sim_.now() + seconds(1));
  EXPECT_EQ(got.delivered, ack.delivered);
  EXPECT_EQ(sender, NodeId{2});
}

/// 1 m from the origin until `leave`, then far beyond D2D range.
class LeavesAt final : public mobility::MobilityModel {
 public:
  explicit LeavesAt(TimePoint leave) : leave_(leave) {}
  mobility::Vec2 position_at(TimePoint t) const override {
    return t < leave_ ? mobility::Vec2{1.0, 0.0} : mobility::Vec2{100.0, 0.0};
  }

 private:
  TimePoint leave_;
};

// A send has no completion: a transfer whose link dies in flight is
// reported through both ends' disconnect handlers, and nothing arrives.
TEST_F(WifiDirectTest, TransferLostInFlightReportsThroughDisconnect) {
  auto ue = std::make_unique<TestPhone>(
      sim_, medium_, 1,
      std::make_unique<LeavesAt>(TimePoint{} + seconds(5.7)));
  auto relay = TestPhone::at(sim_, medium_, 2, 0, 0);
  ue->radio.connect(NodeId{2}, [](Result<GroupId>) {});
  sim_.run_until(TimePoint{} + seconds(5.6));
  ASSERT_TRUE(ue->radio.connected_to(NodeId{2}));

  NodeId ue_lost{}, relay_lost{};
  bool received = false;
  ue->radio.set_disconnect_handler([&](NodeId p) { ue_lost = p; });
  relay->radio.set_disconnect_handler([&](NodeId p) { relay_lost = p; });
  relay->radio.set_receive_handler(
      [&](const net::D2dPayload&, NodeId) { received = true; });
  // In range as the transfer starts; 100 m away when it would land.
  EXPECT_TRUE(
      ue->radio.send(NodeId{2}, net::D2dPayload{heartbeat(1, 1)}).ok());
  sim_.run_until(TimePoint{} + seconds(6.0));
  EXPECT_FALSE(received);
  EXPECT_EQ(ue_lost, NodeId{2});
  EXPECT_EQ(relay_lost, NodeId{1});
  EXPECT_FALSE(ue->radio.connected_to(NodeId{2}));
}

// The second synchronous refusal: a linked peer that is already out of
// range. The link is broken first, so both ends hear of it.
TEST_F(WifiDirectTest, SendToPeerOutOfRangeFailsAndBreaksTheLink) {
  auto ue = std::make_unique<TestPhone>(
      sim_, medium_, 1,
      std::make_unique<LeavesAt>(TimePoint{} + seconds(5.7)));
  auto relay = TestPhone::at(sim_, medium_, 2, 0, 0);
  NodeId relay_lost{};
  bool received = false;
  relay->radio.set_disconnect_handler([&](NodeId p) { relay_lost = p; });
  relay->radio.set_receive_handler(
      [&](const net::D2dPayload&, NodeId) { received = true; });
  ue->radio.connect(NodeId{2}, [](Result<GroupId>) {});
  sim_.run_until(TimePoint{} + seconds(5.8));

  const Status status =
      ue->radio.send(NodeId{2}, net::D2dPayload{heartbeat(1, 1)});
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.error().code, Errc::disconnected);
  EXPECT_FALSE(ue->radio.connected_to(NodeId{2}));
  sim_.run_until(TimePoint{} + seconds(7.0));
  EXPECT_FALSE(received);
  EXPECT_EQ(relay_lost, NodeId{1});
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

// --- Link monitor: armed only while a link can break ------------------

TEST_F(WifiDirectTest, StaticPairSchedulesNoMonitorTick) {
  auto ue = TestPhone::at(sim_, medium_, 1, 0, 0);
  auto relay = TestPhone::at(sim_, medium_, 2, 1, 0);
  ue->radio.connect(NodeId{2}, [](Result<GroupId>) {});
  sim_.run_until(sim_.now() + seconds(4));
  ASSERT_TRUE(ue->radio.connected_to(NodeId{2}));
  EXPECT_FALSE(ue->radio.link_monitor_armed());
  EXPECT_FALSE(relay->radio.link_monitor_armed());

  const std::size_t pending = sim_.pending_events();
  const std::uint64_t executed = sim_.executed_events();
  sim_.run_until(sim_.now() + seconds(10));
  EXPECT_LE(sim_.pending_events(), pending);
  EXPECT_EQ(sim_.executed_events(), executed);  // not one tick
  EXPECT_TRUE(ue->radio.connected_to(NodeId{2}));
}

TEST_F(WifiDirectTest, MonitorFollowsTheMovingClientOnly) {
  auto relay = TestPhone::at(sim_, medium_, 1, 0, 0);
  relay->radio.set_group_owner_intent(kMaxGroupOwnerIntent);
  auto still = TestPhone::at(sim_, medium_, 2, 1, 0);
  auto walker = std::make_unique<TestPhone>(
      sim_, medium_, 3,
      std::make_unique<mobility::LinearMobility>(
          mobility::Vec2{0.0, 1.0}, mobility::Vec2{0.0, 2.0}));  // 2 m/s
  still->radio.connect(NodeId{1}, [](Result<GroupId>) {});
  sim_.run_until(sim_.now() + seconds(3));
  ASSERT_EQ(relay->radio.link_count(), 1u);
  EXPECT_FALSE(relay->radio.link_monitor_armed());

  walker->radio.connect(NodeId{1}, [](Result<GroupId>) {});
  sim_.run_until(sim_.now() + seconds(3));
  ASSERT_EQ(relay->radio.link_count(), 2u);
  EXPECT_TRUE(relay->radio.link_monitor_armed());
  EXPECT_TRUE(walker->radio.link_monitor_armed());
  EXPECT_FALSE(still->radio.link_monitor_armed());

  // The walker leaves the 30 m range at about t = 14.5 s.
  sim_.run_until(TimePoint{} + seconds(20));
  EXPECT_FALSE(relay->radio.connected_to(NodeId{3}));
  EXPECT_TRUE(relay->radio.connected_to(NodeId{2}));
  EXPECT_FALSE(relay->radio.link_monitor_armed());
  EXPECT_FALSE(walker->radio.link_monitor_armed());
}

TEST_F(WifiDirectTest, DepartingUeBreaksItsLink) {
  auto relay = TestPhone::at(sim_, medium_, 1, 0, 0);
  auto ue = std::make_unique<TestPhone>(
      sim_, medium_, 2,
      std::make_unique<mobility::DepartureMobility>(
          mobility::Vec2{1.0, 0.0}, mobility::Vec2{200.0, 0.0},
          TimePoint{} + seconds(30), 2.0));
  ue->radio.connect(NodeId{1}, [](Result<GroupId>) {});
  NodeId lost{};
  ue->radio.set_disconnect_handler([&](NodeId peer) { lost = peer; });
  sim_.run_until(TimePoint{} + seconds(29));
  ASSERT_TRUE(ue->radio.connected_to(NodeId{1}));
  EXPECT_TRUE(relay->radio.link_monitor_armed());

  // Departs from 1 m at 30 s at 2 m/s: out of the 30 m range at ~45 s.
  sim_.run_until(TimePoint{} + seconds(50));
  EXPECT_EQ(lost, NodeId{1});
  EXPECT_EQ(ue->radio.link_count(), 0u);
  EXPECT_EQ(relay->radio.link_count(), 0u);
  EXPECT_FALSE(relay->radio.link_monitor_armed());
}

TEST_F(WifiDirectTest, DestroyedStaticPeerIsDroppedWithinOneTick) {
  auto ue = TestPhone::at(sim_, medium_, 1, 0, 0);
  auto relay = TestPhone::at(sim_, medium_, 2, 1, 0);
  ue->radio.connect(NodeId{2}, [](Result<GroupId>) {});
  sim_.run_until(sim_.now() + seconds(4));
  ASSERT_TRUE(relay->radio.connected_to(NodeId{1}));
  ASSERT_FALSE(relay->radio.link_monitor_armed());

  TimePoint destroyed_at{};
  TimePoint lost_at{};
  NodeId lost{};
  relay->radio.set_disconnect_handler([&](NodeId peer) {
    lost = peer;
    lost_at = sim_.now();
  });
  sim_.schedule_after(milliseconds(2500), [&] {
    destroyed_at = sim_.now();
    ue.reset();  // no handler may run from the destructor
    EXPECT_EQ(lost, NodeId{});
  });
  sim_.run_until(sim_.now() + seconds(10));
  EXPECT_EQ(lost, NodeId{1});
  EXPECT_GT(lost_at, destroyed_at);
  EXPECT_LE(lost_at - destroyed_at, seconds(1));
  EXPECT_EQ(relay->radio.link_count(), 0u);
  EXPECT_FALSE(relay->radio.link_monitor_armed());
  EXPECT_NO_THROW(sim_.audit());
}

}  // namespace
}  // namespace d2dhb::d2d

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "energy/energy_meter.hpp"
#include "radio/cellular_modem.hpp"
#include "sim/simulator.hpp"

namespace d2dhb::radio {
namespace {

net::UplinkBundle small_bundle(std::uint64_t node,
                               std::uint32_t bytes = 54) {
  net::UplinkBundle b;
  b.sender = NodeId{node};
  net::HeartbeatMessage m;
  m.id = MessageId{node};
  m.origin = NodeId{node};
  m.size = Bytes{bytes};
  b.messages = {m};
  return b;
}

class RrcTest : public ::testing::Test {
 protected:
  RrcTest()
      : meter_(sim_),
        modem_(sim_, NodeId{1}, shared_wcdma_profile(), meter_, signaling_) {}

  sim::Simulator sim_;
  energy::EnergyMeter meter_;
  CellSignaling cell_;
  SignalingCounter& signaling_{cell_.strip(0)};
  CellularModem modem_;
};

TEST_F(RrcTest, StartsIdle) {
  EXPECT_EQ(modem_.state(), RrcState::idle);
  EXPECT_DOUBLE_EQ(modem_.radio_charge().value, 0.0);
}

TEST_F(RrcTest, FullCycleStateWalk) {
  modem_.transmit(small_bundle(1));
  EXPECT_EQ(modem_.state(), RrcState::promoting);
  sim_.run_until(sim_.now() + seconds(2));  // past 1.8 s promotion
  EXPECT_EQ(modem_.state(), RrcState::transmitting);
  sim_.run_until(sim_.now() + seconds(1));  // past 0.4 s burst
  EXPECT_EQ(modem_.state(), RrcState::high);
  sim_.run_until(sim_.now() + seconds(3));  // past 2.8 s DCH inactivity
  EXPECT_EQ(modem_.state(), RrcState::low);
  sim_.run_until(sim_.now() + seconds(2.5));  // past 2.0 s FACH inactivity
  EXPECT_EQ(modem_.state(), RrcState::idle);
}

TEST_F(RrcTest, OneHeartbeatCosts8L3Messages) {
  modem_.transmit(small_bundle(1));
  sim_.run_until(sim_.now() + seconds(20));
  EXPECT_EQ(modem_.state(), RrcState::idle);
  // 5 setup + 1 demotion + 2 release (DESIGN.md §5 / Fig. 15 slope).
  EXPECT_EQ(signaling_.total(), 8u);
  EXPECT_EQ(wcdma_profile().full_cycle_l3(), 8u);
}

TEST_F(RrcTest, OneHeartbeatCostsCalibratedCharge) {
  modem_.transmit(small_bundle(1));
  sim_.run_until(sim_.now() + seconds(20));
  // 1.8·400 + 0.4·650 + 2.8·330 + 2.0·125 = 2154 mA·s = 598.33 µAh.
  EXPECT_NEAR(modem_.radio_charge().value, 598.33, 0.5);
}

TEST_F(RrcTest, UplinkHandlerFiresAfterBurst) {
  TimePoint done{};
  modem_.set_uplink_handler(
      [&](const net::UplinkBundle&) { done = sim_.now(); });
  modem_.transmit(small_bundle(1));
  sim_.run_until(sim_.now() + seconds(20));
  // Promotion 1.8 s + min burst 0.4 s.
  EXPECT_EQ(done, TimePoint{} + milliseconds(2200));
  EXPECT_EQ(modem_.bundles_sent(), 1u);
}

TEST_F(RrcTest, TransmitFromLowUsesReconfigurationNotSetup) {
  modem_.transmit(small_bundle(1));
  sim_.run_until(sim_.now() + seconds(6));  // now in LOW (FACH)
  ASSERT_EQ(modem_.state(), RrcState::low);
  const auto l3_before = signaling_.total();
  modem_.transmit(small_bundle(1));
  sim_.run_until(sim_.now() + seconds(20));
  EXPECT_EQ(modem_.state(), RrcState::idle);
  // LOW->HIGH costs 2 (reconfig + measurement), then demote 1, release 2.
  EXPECT_EQ(signaling_.total() - l3_before, 5u);
  EXPECT_EQ(modem_.rrc_promotions(), 1u);  // only the first was a promotion
}

TEST_F(RrcTest, BackToBackTransmitsShareOneConnection) {
  modem_.transmit(small_bundle(1));
  sim_.run_until(sim_.now() + seconds(2.5));  // first burst done, still HIGH
  const auto l3_before = signaling_.total();
  modem_.transmit(small_bundle(1));  // while HIGH: no new signaling
  sim_.run_until(sim_.now() + seconds(1));
  EXPECT_EQ(signaling_.total(), l3_before);
  EXPECT_EQ(modem_.bundles_sent(), 2u);
}

TEST_F(RrcTest, QueuedDuringPromotionRideAlong) {
  modem_.transmit(small_bundle(1));
  modem_.transmit(small_bundle(1));
  modem_.transmit(small_bundle(1));
  sim_.run_until(sim_.now() + seconds(20));
  EXPECT_EQ(modem_.bundles_sent(), 3u);
  EXPECT_EQ(modem_.rrc_promotions(), 1u);
  // One setup (5) + demote (1) + release (2) despite three bundles.
  EXPECT_EQ(signaling_.total(), 8u);
}

TEST_F(RrcTest, QueuedBundlesLeaveInTransmitOrder) {
  std::vector<std::uint64_t> sent;
  modem_.set_uplink_handler([&](const net::UplinkBundle& b) {
    sent.push_back(b.messages.front().id.value);
  });
  // Three distinct bundles queue behind one promotion.
  modem_.transmit(small_bundle(11, 54));
  modem_.transmit(small_bundle(12, 80));
  modem_.transmit(small_bundle(13, 120));
  sim_.run_until(sim_.now() + seconds(20));
  EXPECT_EQ(sent, (std::vector<std::uint64_t>{11, 12, 13}));
  EXPECT_EQ(modem_.rrc_promotions(), 1u);

  // A queue dropped by force_idle() stays dropped: the next transmit
  // promotes afresh and sends only itself.
  modem_.transmit(small_bundle(14, 60));
  modem_.transmit(small_bundle(15, 70));
  modem_.force_idle();
  modem_.transmit(small_bundle(16, 90));
  sim_.run_until(sim_.now() + seconds(20));
  EXPECT_EQ(sent, (std::vector<std::uint64_t>{11, 12, 13, 16}));
  EXPECT_EQ(modem_.rrc_promotions(), 3u);
  EXPECT_EQ(modem_.bundles_sent(), 4u);
  EXPECT_EQ(modem_.state(), RrcState::idle);
}

TEST_F(RrcTest, LargePayloadTriggersRbReconfiguration) {
  modem_.transmit(small_bundle(1, 400));  // > 150 B threshold
  sim_.run_until(sim_.now() + seconds(20));
  EXPECT_EQ(signaling_.total(), 9u);
  EXPECT_EQ(cell_.count_of(L3MessageType::radio_bearer_reconfiguration), 1u);
}

TEST_F(RrcTest, BigPayloadStretchesBurst) {
  TimePoint done{};
  modem_.set_uplink_handler(
      [&](const net::UplinkBundle&) { done = sim_.now(); });
  modem_.transmit(small_bundle(1, 200'000));  // 1 s at 200 kB/s
  sim_.run_until(sim_.now() + seconds(20));
  EXPECT_EQ(done, TimePoint{} + milliseconds(2800));  // 1.8 s + 1.0 s
}

TEST_F(RrcTest, ForceIdleDropsQueueAndState) {
  modem_.transmit(small_bundle(1));
  modem_.transmit(small_bundle(1));
  modem_.force_idle();
  EXPECT_EQ(modem_.state(), RrcState::idle);
  sim_.run_until(sim_.now() + seconds(20));
  EXPECT_EQ(modem_.bundles_sent(), 0u);
  // Setup signaling already went out before the drop (realistic: the
  // request hit the air), but no further exchanges happen.
  EXPECT_EQ(signaling_.total(), 5u);
}

TEST_F(RrcTest, StateNamesAreStable) {
  EXPECT_STREQ(to_string(RrcState::idle), "IDLE");
  EXPECT_STREQ(to_string(RrcState::promoting), "PROMOTING");
  EXPECT_STREQ(to_string(RrcState::high), "HIGH");
  EXPECT_STREQ(to_string(RrcState::transmitting), "TRANSMITTING");
  EXPECT_STREQ(to_string(RrcState::low), "LOW");
}

TEST(RrcLte, ShorterPromotionAndFewerCycleMessages) {
  sim::Simulator sim;
  energy::EnergyMeter meter{sim};
  SignalingCounter signaling;
  CellularModem modem{sim, NodeId{1},
                      std::make_shared<const RrcProfile>(lte_profile()), meter,
                      signaling};
  TimePoint done{};
  modem.set_uplink_handler(
      [&](const net::UplinkBundle&) { done = sim.now(); });
  modem.transmit(small_bundle(1));
  sim.run_until(sim.now() + seconds(30));
  EXPECT_EQ(modem.state(), RrcState::idle);
  EXPECT_EQ(done, TimePoint{} + milliseconds(550));  // 0.3 s + 0.25 s
  // LTE: 5 setup + 0 DRX-entry + 2 release.
  EXPECT_EQ(signaling.total(), 7u);
}

TEST(RrcProfiles, WcdmaVsLteEnergyShape) {
  // LTE's short promotion but long DRX tail: one isolated heartbeat
  // costs less in the WCDMA promotion phase but pays the DRX tail.
  sim::Simulator sim;
  energy::EnergyMeter meter{sim};
  SignalingCounter signaling;
  CellularModem wcdma{sim, NodeId{1}, shared_wcdma_profile(), meter,
                      signaling};
  CellularModem lte{sim, NodeId{2},
                    std::make_shared<const RrcProfile>(lte_profile()), meter,
                    signaling};
  wcdma.transmit(small_bundle(1));
  lte.transmit(small_bundle(2));
  sim.run_until(sim.now() + seconds(30));
  EXPECT_GT(wcdma.radio_charge().value, 100.0);
  EXPECT_GT(lte.radio_charge().value, 100.0);
}

}  // namespace
}  // namespace d2dhb::radio

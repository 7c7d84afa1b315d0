// Battery-aware relay behaviour (Section III-C): advertised capacity
// scales with remaining charge; exhausted relays retire and their UEs
// fall back.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/relay_agent.hpp"
#include "core/ue_agent.hpp"
#include "scenario/scenario.hpp"

namespace d2dhb::core {
namespace {

class BatteryRelayTest : public ::testing::Test {
 protected:
  Phone& add_phone(double x) {
    PhoneConfig pc;
    pc.mobility = std::make_unique<mobility::StaticMobility>(
        mobility::Vec2{x, 0.0});
    return world_.add_phone(std::move(pc));
  }

  apps::AppProfile app(double period_s = 30.0) {
    apps::AppProfile a = apps::standard_app();
    a.heartbeat_period = seconds(period_s);
    a.expiry = seconds(period_s);
    return a;
  }

  RelayAgent::Params relay_params(double battery_uah) {
    RelayAgent::Params p;
    p.own_app = app();
    p.scheduler.max_own_delay = seconds(30);
    p.scheduler.deadline_margin = seconds(3);
    p.battery_capacity = MicroAmpHours{battery_uah};
    p.battery_poll_interval = seconds(10);
    return p;
  }

  scenario::Scenario world_;
};

TEST_F(BatteryRelayTest, NoBatteryMeansFullLevel) {
  Phone& phone = add_phone(0);
  RelayAgent::Params p = relay_params(0.0);
  p.battery_capacity = MicroAmpHours{0.0};
  RelayAgent& relay = world_.add_relay(phone, p);
  relay.start();
  world_.sim().run_until(TimePoint{} + seconds(120));
  EXPECT_DOUBLE_EQ(relay.battery_level(), 1.0);
  EXPECT_FALSE(relay.retired());
}

TEST_F(BatteryRelayTest, AdvertisedCapacityScalesWithBattery) {
  Phone& phone = add_phone(0);
  // Drain: 40 mA baseline (11.1 uAh/s) + one 598 uAh cellular heartbeat
  // per 30 s period = ~31 uAh/s. 20 000 uAh is ~44 % gone by t = 360 s.
  RelayAgent& relay = world_.add_relay(phone, relay_params(20000.0));
  relay.start();
  EXPECT_EQ(phone.wifi().advert().capacity_remaining, 7u);
  world_.sim().run_until(TimePoint{} + seconds(360));
  const auto advertised = phone.wifi().advert().capacity_remaining;
  EXPECT_LT(advertised, 7u);
  EXPECT_GT(advertised, 0u);
  EXPECT_FALSE(relay.retired());
}

TEST_F(BatteryRelayTest, RetiresBelowThresholdAndStopsAdvertising) {
  Phone& phone = add_phone(0);
  RelayAgent& relay = world_.add_relay(phone, relay_params(4000.0));
  relay.start();
  world_.sim().run_until(TimePoint{} + seconds(600));
  EXPECT_TRUE(relay.retired());
  EXPECT_FALSE(relay.running());
  EXPECT_FALSE(phone.wifi().advert().offers_relay);
  // Retirement is sticky: start() is refused.
  relay.start();
  EXPECT_FALSE(relay.running());
}

TEST_F(BatteryRelayTest, RetiredRelayLeavesScansAndTheDiscoveryIndex) {
  Phone& relay_phone = add_phone(0);
  Phone& ue_phone = add_phone(1);
  RelayAgent& relay = world_.add_relay(relay_phone, relay_params(4000.0));
  relay.start();
  d2d::WifiDirectMedium& medium = world_.medium();
  auto ue_sees_relay = [&] {
    const auto peers = medium.scan_from(ue_phone.id());
    return std::any_of(peers.begin(), peers.end(),
                       [&](const d2d::DiscoveredPeer& p) {
                         return p.node == relay_phone.id();
                       });
  };
  EXPECT_TRUE(medium.indexed(relay_phone.id()));
  EXPECT_TRUE(ue_sees_relay());
  world_.sim().run_until(TimePoint{} + seconds(600));
  ASSERT_TRUE(relay.retired());
  EXPECT_FALSE(medium.indexed(relay_phone.id()));
  EXPECT_FALSE(ue_sees_relay());
  EXPECT_NO_THROW(world_.sim().audit());
}

TEST_F(BatteryRelayTest, UeSurvivesRelayRetirement) {
  Phone& relay_phone = add_phone(0);
  Phone& ue_phone = add_phone(1);
  RelayAgent& relay = world_.add_relay(relay_phone, relay_params(6000.0));
  UeAgent::Params up;
  up.app = app();
  up.feedback_timeout = seconds(45);
  up.retry_backoff = seconds(60);
  UeAgent& ue = world_.add_ue(ue_phone, up);
  world_.register_session(ue_phone, 3 * seconds(30));
  relay.start();
  ue.start();
  world_.sim().run_until(TimePoint{} + seconds(1200));

  EXPECT_TRUE(relay.retired());
  // The UE noticed the disconnect and kept its session alive directly.
  EXPECT_GT(ue.stats().sent_via_cellular + ue.stats().fallback_cellular,
            0u);
  const auto& s =
      world_.server().stats(ue_phone.id(), AppId{ue_phone.id().value});
  EXPECT_EQ(s.offline_events, 0u);
}

TEST_F(BatteryRelayTest, LowBatteryRelayRejectedByCapacityPrejudgment) {
  Phone& relay_phone = add_phone(0);
  Phone& ue_phone = add_phone(1);
  // Battery drained enough that floor(7 · level) = 0 (level < 1/7) but
  // still above the 0.1 retirement threshold: after 28 aggregated own
  // heartbeats plus baseline draw, a 30 000 uAh battery sits at level
  // ~0.116 at t = 880 s.
  RelayAgent& relay = world_.add_relay(relay_phone, relay_params(30000.0));
  relay.start();
  world_.sim().run_until(TimePoint{} + seconds(880));
  ASSERT_FALSE(relay.retired());
  EXPECT_EQ(relay_phone.wifi().advert().capacity_remaining, 0u);

  UeAgent::Params up;
  up.app = app();
  UeAgent& ue = world_.add_ue(ue_phone, up);
  ue.start();
  world_.sim().run_until(world_.sim().now() + seconds(60));
  // The detector's require_capacity pre-judgment refuses the match.
  EXPECT_EQ(ue.stats().matches, 0u);
  EXPECT_GT(ue.stats().sent_via_cellular, 0u);
}

}  // namespace
}  // namespace d2dhb::core

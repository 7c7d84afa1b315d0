#include "core/original_agent.hpp"

#include <gtest/gtest.h>

#include "scenario/scenario.hpp"

namespace d2dhb::core {
namespace {

class OriginalAgentTest : public ::testing::Test {
 protected:
  Phone& add_phone() {
    PhoneConfig pc;
    pc.mobility = std::make_unique<mobility::StaticMobility>(
        mobility::Vec2{0.0, 0.0});
    return world_.add_phone(std::move(pc));
  }

  apps::AppProfile short_app(double period_s = 20.0) {
    apps::AppProfile a = apps::standard_app();
    a.heartbeat_period = seconds(period_s);
    a.expiry = seconds(period_s);
    return a;
  }

  scenario::Scenario world_;
};

TEST_F(OriginalAgentTest, EveryHeartbeatIsOneRrcCycle) {
  Phone& phone = add_phone();
  OriginalAgent& agent = world_.add_original(phone, short_app());
  agent.apps().front()->set_max_emissions(4);
  agent.start();
  world_.sim().run_until(TimePoint{} + seconds(150));
  EXPECT_EQ(agent.heartbeats_sent(), 4u);
  EXPECT_EQ(world_.server().totals().delivered, 4u);
  // 4 cycles × 8 L3 messages.
  EXPECT_EQ(world_.bs().signaling().count_for(phone.id()), 32u);
  // 4 × ~598 µAh.
  EXPECT_NEAR(phone.cellular_charge().value, 4 * 598.3, 5.0);
  EXPECT_DOUBLE_EQ(phone.wifi_charge().value, 0.0);
}

TEST_F(OriginalAgentTest, MultipleAppsShareTheModem) {
  Phone& phone = add_phone();
  OriginalAgent& agent = world_.add_original(phone, short_app(20.0));
  agent.add_app(short_app(30.0));
  agent.start();
  // Run past t=120 so the RRC promotion + burst of the last heartbeats
  // (fired at exactly t=120) completes.
  world_.sim().run_until(TimePoint{} + seconds(130));
  // 20 s app: t=20,40,...,120 → 6; 30 s app: t=30,60,90,120 → 4.
  EXPECT_EQ(agent.heartbeats_sent(), 10u);
  EXPECT_EQ(world_.bs().heartbeats_received(), 10u);
}

TEST_F(OriginalAgentTest, StopHaltsTraffic) {
  Phone& phone = add_phone();
  OriginalAgent& agent = world_.add_original(phone, short_app());
  agent.start();
  world_.sim().run_until(TimePoint{} + seconds(50));
  const auto sent = agent.heartbeats_sent();
  agent.stop();
  world_.sim().run_until(TimePoint{} + seconds(500));
  EXPECT_EQ(agent.heartbeats_sent(), sent);
}

TEST_F(OriginalAgentTest, StaysOnlineAtServer) {
  Phone& phone = add_phone();
  OriginalAgent& agent = world_.add_original(phone, short_app());
  world_.register_session(phone, 3 * seconds(20));
  agent.start();
  world_.sim().run_until(TimePoint{} + seconds(500));
  const auto& s =
      world_.server().stats(phone.id(), AppId{phone.id().value});
  EXPECT_EQ(s.offline_events, 0u);
  EXPECT_GT(s.on_time, 20u);
}

}  // namespace
}  // namespace d2dhb::core

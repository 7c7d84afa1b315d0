#include "core/ue_agent.hpp"

#include <gtest/gtest.h>

#include "core/relay_agent.hpp"
#include "scenario/scenario.hpp"

namespace d2dhb::core {
namespace {

// Relay + one UE world with compressed (20 s) heartbeat periods.
class UeAgentTest : public ::testing::Test {
 protected:
  static constexpr double kPeriod = 20.0;

  Phone& add_phone(double x, double y) {
    PhoneConfig pc;
    pc.mobility =
        std::make_unique<mobility::StaticMobility>(mobility::Vec2{x, y});
    return world_.add_phone(std::move(pc));
  }

  apps::AppProfile app() {
    apps::AppProfile a = apps::standard_app();
    a.heartbeat_period = seconds(kPeriod);
    a.expiry = seconds(kPeriod);
    return a;
  }

  RelayAgent& add_relay(Phone& phone) {
    RelayAgent::Params p;
    p.own_app = app();
    p.scheduler.capacity = 7;
    p.scheduler.max_own_delay = seconds(kPeriod);
    p.scheduler.deadline_margin = seconds(2);
    return world_.add_relay(phone, p);
  }

  UeAgent& add_ue(Phone& phone) {
    UeAgent::Params p;
    p.app = app();
    p.feedback_timeout = seconds(1.5 * kPeriod + 10.0);
    p.retry_backoff = seconds(40);
    return world_.add_ue(phone, p);
  }

  scenario::Scenario world_;
};

TEST_F(UeAgentTest, DiscoversConnectsAndForwards) {
  Phone& relay_phone = add_phone(0, 0);
  Phone& ue_phone = add_phone(1, 0);
  RelayAgent& relay = add_relay(relay_phone);
  UeAgent& ue = add_ue(ue_phone);
  relay.start();
  ue.start();
  world_.sim().run_until(TimePoint{} + seconds(100));
  EXPECT_EQ(ue.link_state(), UeAgent::LinkState::connected);
  EXPECT_EQ(ue.current_relay(), relay_phone.id());
  EXPECT_GT(ue.stats().sent_via_d2d, 0u);
  EXPECT_EQ(ue.stats().sent_via_cellular, 0u);
  EXPECT_GT(relay.stats().forwarded_received, 0u);
  // UE never touched the cellular control channel.
  EXPECT_EQ(world_.bs().signaling().count_for(ue_phone.id()), 0u);
}

TEST_F(UeAgentTest, FeedbackAcksClearPendingEntries) {
  Phone& relay_phone = add_phone(0, 0);
  Phone& ue_phone = add_phone(1, 0);
  RelayAgent& relay = add_relay(relay_phone);
  UeAgent& ue = add_ue(ue_phone);
  relay.start();
  ue.start();
  ue.app().set_max_emissions(3);
  relay.own_app().set_max_emissions(3);
  world_.sim().run_until(TimePoint{} + seconds(150));
  EXPECT_EQ(ue.feedback().stats().tracked, 3u);
  EXPECT_EQ(ue.feedback().stats().acknowledged, 3u);
  EXPECT_EQ(ue.feedback().stats().timed_out, 0u);
  EXPECT_EQ(ue.stats().fallback_cellular, 0u);
}

TEST_F(UeAgentTest, NoRelayMeansDirectCellular) {
  Phone& ue_phone = add_phone(0, 0);
  UeAgent& ue = add_ue(ue_phone);
  ue.start();
  ue.app().set_max_emissions(2);
  world_.sim().run_until(TimePoint{} + seconds(120));
  EXPECT_EQ(ue.stats().sent_via_d2d, 0u);
  EXPECT_EQ(ue.stats().sent_via_cellular, 2u);
  EXPECT_GT(world_.bs().signaling().count_for(ue_phone.id()), 0u);
  EXPECT_EQ(world_.server().totals().delivered, 2u);
}

TEST_F(UeAgentTest, BackoffAfterFailedDiscovery) {
  Phone& ue_phone = add_phone(0, 0);
  UeAgent& ue = add_ue(ue_phone);
  ue.start();
  world_.sim().run_until(TimePoint{} + seconds(100));
  // First heartbeat triggered one discovery; the rest went straight to
  // cellular during backoff windows, with periodic re-discovery.
  EXPECT_GE(ue.stats().discoveries, 1u);
  EXPECT_EQ(ue.stats().matches, 0u);
  EXPECT_EQ(ue.stats().sent_via_d2d, 0u);
}

TEST_F(UeAgentTest, DistantRelayRejectedByPrejudgment) {
  Phone& relay_phone = add_phone(0, 0);
  Phone& ue_phone = add_phone(25, 0);  // in radio range, beyond 12 m policy
  RelayAgent& relay = add_relay(relay_phone);
  UeAgent& ue = add_ue(ue_phone);
  relay.start();
  ue.start();
  world_.sim().run_until(TimePoint{} + seconds(100));
  EXPECT_GE(ue.stats().discoveries, 1u);
  EXPECT_EQ(ue.stats().matches, 0u);
  EXPECT_GT(ue.stats().sent_via_cellular, 0u);
}

TEST_F(UeAgentTest, WalkAwayTriggersFallbackAndRediscovery) {
  Phone& relay_phone = add_phone(0, 0);
  // UE walks away at 0.3 m/s: near (6.5 m) when the first heartbeat
  // triggers pairing, inside the 12 m matching pre-judgment, and out of
  // the 30 m radio range at t ~ 98 s — mid-connection.
  PhoneConfig pc;
  pc.mobility = std::make_unique<mobility::LinearMobility>(
      mobility::Vec2{0.5, 0.0}, mobility::Vec2{0.3, 0.0});
  Phone& ue_phone = world_.add_phone(std::move(pc));
  RelayAgent& relay = add_relay(relay_phone);
  UeAgent& ue = add_ue(ue_phone);
  relay.start();
  ue.start();
  world_.sim().run_until(TimePoint{} + seconds(200));
  EXPECT_GE(ue.stats().link_losses, 1u);
  // Un-acked heartbeats were retransmitted over cellular.
  EXPECT_GT(ue.stats().fallback_cellular + ue.stats().sent_via_cellular, 0u);
  EXPECT_NE(ue.link_state(), UeAgent::LinkState::connected);
}

TEST_F(UeAgentTest, StopDisconnectsCleanly) {
  Phone& relay_phone = add_phone(0, 0);
  Phone& ue_phone = add_phone(1, 0);
  RelayAgent& relay = add_relay(relay_phone);
  UeAgent& ue = add_ue(ue_phone);
  relay.start();
  ue.start();
  world_.sim().run_until(TimePoint{} + seconds(60));
  ASSERT_EQ(ue.link_state(), UeAgent::LinkState::connected);
  ue.stop();
  EXPECT_EQ(ue.link_state(), UeAgent::LinkState::idle);
  EXPECT_FALSE(ue_phone.wifi().connected_to(relay_phone.id()));
  EXPECT_FALSE(relay_phone.wifi().connected_to(ue_phone.id()));
}

TEST_F(UeAgentTest, ServerNeverSeesUeOffline) {
  Phone& relay_phone = add_phone(0, 0);
  Phone& ue_phone = add_phone(1, 0);
  RelayAgent& relay = add_relay(relay_phone);
  UeAgent& ue = add_ue(ue_phone);
  world_.register_session(ue_phone, 3 * seconds(kPeriod));
  relay.start();
  ue.start();
  world_.sim().run_until(TimePoint{} + seconds(400));
  const auto& s = world_.server().stats(ue_phone.id(), AppId{ue_phone.id().value});
  EXPECT_GT(s.delivered, 10u);
  EXPECT_EQ(s.offline_events, 0u);
}

}  // namespace
}  // namespace d2dhb::core

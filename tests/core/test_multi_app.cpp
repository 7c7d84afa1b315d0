// Phones running several IM apps at once (the Table I reality): UEs
// forward all their apps' heartbeats over one relay link; relays batch
// their own extra apps alongside collected messages.
#include <gtest/gtest.h>

#include <set>

#include "core/relay_agent.hpp"
#include "core/ue_agent.hpp"
#include "scenario/scenario.hpp"

namespace d2dhb::core {
namespace {

class MultiAppTest : public ::testing::Test {
 protected:
  Phone& add_phone(double x) {
    PhoneConfig pc;
    pc.mobility = std::make_unique<mobility::StaticMobility>(
        mobility::Vec2{x, 0.0});
    return world_.add_phone(std::move(pc));
  }

  apps::AppProfile app(double period_s) {
    apps::AppProfile a = apps::standard_app();
    a.name = "app" + std::to_string(static_cast<int>(period_s));
    a.heartbeat_period = seconds(period_s);
    a.expiry = seconds(period_s);
    return a;
  }

  scenario::Scenario world_;
};

TEST_F(MultiAppTest, UeForwardsAllAppsOverOneLink) {
  Phone& relay_phone = add_phone(0);
  Phone& ue_phone = add_phone(1);
  RelayAgent::Params rp;
  rp.own_app = app(30.0);
  rp.scheduler.max_own_delay = seconds(30);
  rp.scheduler.deadline_margin = seconds(3);
  RelayAgent& relay = world_.add_relay(relay_phone, rp);

  UeAgent::Params up;
  up.app = app(30.0);
  up.feedback_timeout = seconds(60);
  UeAgent& ue = world_.add_ue(ue_phone, up);
  ue.add_app(app(45.0));
  ue.add_app(app(60.0));
  ASSERT_EQ(ue.apps().size(), 3u);

  relay.start();
  ue.start();
  world_.sim().run_until(TimePoint{} + seconds(400));

  // 30 s app: 13 beats by t=390; 45 s: 8; 60 s: 6 — all over D2D.
  EXPECT_GT(ue.stats().heartbeats, 20u);
  EXPECT_EQ(ue.stats().sent_via_cellular, 0u);
  EXPECT_EQ(ue.stats().fallback_cellular, 0u);
  EXPECT_EQ(ue.stats().sent_via_d2d, ue.stats().heartbeats);
  // One link only: a single discovery/connect despite three apps.
  EXPECT_EQ(ue.stats().connects, 1u);
  EXPECT_EQ(world_.bs().signaling().count_for(ue_phone.id()), 0u);
}

TEST_F(MultiAppTest, DistinctAppIdsPerApp) {
  Phone& ue_phone = add_phone(0);
  UeAgent::Params up;
  up.app = app(30.0);
  UeAgent& ue = world_.add_ue(ue_phone, up);
  apps::HeartbeatApp& second = ue.add_app(app(45.0));
  apps::HeartbeatApp& third = ue.add_app(app(60.0));
  EXPECT_EQ(ue.app().app_id(), AppId{ue_phone.id().value});
  EXPECT_NE(second.app_id(), ue.app().app_id());
  EXPECT_NE(third.app_id(), second.app_id());
}

// A heartbeat's id is its (app, seq): a 3-app UE's ids never collide,
// so the relay's acks, which name ids, clear every tracked heartbeat.
// A collision would leave one of two same-id entries unacknowledged.
TEST_F(MultiAppTest, ThreeAppIdsStayDistinctAndEveryBeatIsAcked) {
  Phone& relay_phone = add_phone(0);
  Phone& ue_phone = add_phone(1);
  RelayAgent::Params rp;
  rp.own_app = app(30.0);
  rp.scheduler.max_own_delay = seconds(30);
  rp.scheduler.deadline_margin = seconds(3);
  RelayAgent& relay = world_.add_relay(relay_phone, rp);

  UeAgent::Params up;
  up.app = app(30.0);
  up.feedback_timeout = seconds(60);
  UeAgent& ue = world_.add_ue(ue_phone, up);
  ue.add_app(app(45.0));
  ue.add_app(app(60.0));

  relay.start();
  ue.start();
  // 30 + 20 + 15 beats per 900 s: 100 beats by t = 1385 s.
  while (ue.stats().heartbeats < 100) {
    world_.sim().run_until(world_.sim().now() + seconds(5));
  }
  ue.monitor().stop_all();
  // Let the relay flush its last window and ack it.
  world_.sim().run_until(world_.sim().now() + seconds(120));

  std::set<MessageId> ids;
  std::uint64_t emitted = 0;
  for (const apps::HeartbeatApp* a : ue.apps()) {
    for (std::uint64_t seq = 1; seq <= a->emitted(); ++seq) {
      ids.insert(net::message_id(a->app_id(), seq));
    }
    emitted += a->emitted();
  }
  EXPECT_EQ(emitted, ue.stats().heartbeats);
  EXPECT_EQ(ids.size(), emitted);

  EXPECT_EQ(ue.stats().sent_via_d2d, ue.stats().heartbeats);
  const FeedbackTracker::Stats feedback = ue.feedback().stats();
  EXPECT_EQ(feedback.tracked, ue.stats().heartbeats);
  EXPECT_EQ(feedback.acknowledged, feedback.tracked);
  EXPECT_EQ(feedback.timed_out, 0u);
  EXPECT_EQ(feedback.failed_immediately, 0u);
  EXPECT_EQ(ue.feedback().pending(), 0u);
}

TEST_F(MultiAppTest, RelayExtraAppsRideAggregates) {
  Phone& relay_phone = add_phone(0);
  RelayAgent::Params rp;
  rp.own_app = app(30.0);
  rp.scheduler.max_own_delay = seconds(30);
  rp.scheduler.deadline_margin = seconds(3);
  RelayAgent& relay = world_.add_relay(relay_phone, rp);
  apps::HeartbeatApp& diag = relay.add_own_app(app(60.0));
  world_.register_session(relay_phone, seconds(90));
  world_.register_session(relay_phone, seconds(180), diag.app_id());

  relay.start();
  world_.sim().run_until(TimePoint{} + seconds(300));

  // The 60 s app's beats are batched into the 30 s app's windows: the
  // bundle count tracks the primary window count, not the sum of beats.
  EXPECT_LE(relay.stats().bundles_sent,
            relay.stats().own_heartbeats + 1);
  // Both sessions stay online.
  EXPECT_TRUE(world_.server().online(relay_phone.id(),
                                     AppId{relay_phone.id().value}));
  EXPECT_TRUE(world_.server().online(relay_phone.id(), diag.app_id()));
  EXPECT_EQ(world_.server().totals().late, 0u);
}

TEST_F(MultiAppTest, HeterogeneousExpiryDrivesSchedulerDeadlines) {
  Phone& relay_phone = add_phone(0);
  Phone& ue_phone = add_phone(1);
  RelayAgent::Params rp;
  rp.own_app = app(300.0);  // long window: T = 300 s
  rp.scheduler.max_own_delay = seconds(300);
  rp.scheduler.deadline_margin = seconds(5);
  RelayAgent& relay = world_.add_relay(relay_phone, rp);

  UeAgent::Params up;
  up.app = app(60.0);  // short expiry: forces flushes before T
  up.feedback_timeout = seconds(120);
  UeAgent& ue = world_.add_ue(ue_phone, up);
  world_.register_session(ue_phone, seconds(180));

  relay.start();
  ue.start();
  world_.sim().run_until(TimePoint{} + seconds(700));

  // The relay's own T alone would flush at 595; the UE's 60 s-expiry
  // messages force earlier expiry flushes, so > 2 bundles must exist.
  EXPECT_GT(relay.stats().bundles_sent, 2u);
  EXPECT_EQ(world_.server().totals().late, 0u);
  EXPECT_TRUE(
      world_.server().online(ue_phone.id(), AppId{ue_phone.id().value}));
}

}  // namespace
}  // namespace d2dhb::core

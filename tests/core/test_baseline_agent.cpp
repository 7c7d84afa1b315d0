#include "core/baseline_agent.hpp"

#include <gtest/gtest.h>

#include "scenario/scenario.hpp"

namespace d2dhb::core {
namespace {

class BaselineAgentTest : public ::testing::Test {
 protected:
  Phone& add_phone() {
    PhoneConfig pc;
    pc.mobility = std::make_unique<mobility::StaticMobility>(
        mobility::Vec2{0.0, 0.0});
    return world_.add_phone(std::move(pc));
  }

  apps::AppProfile app(double period_s = 60.0) {
    apps::AppProfile a = apps::standard_app();
    a.heartbeat_period = seconds(period_s);
    a.expiry = seconds(period_s);
    return a;
  }

  CellularBaselineAgent make(Phone& phone,
                             CellularBaselineAgent::Params params) {
    return CellularBaselineAgent{world_.sim(), phone, std::move(params),
                                 world_.bs(), world_.fork_rng()};
  }

  scenario::Scenario world_;
};

TEST_F(BaselineAgentTest, OriginalSendsEveryHeartbeatImmediately) {
  Phone& phone = add_phone();
  CellularBaselineAgent::Params p;
  p.app = app();
  p.with_data_traffic = false;
  CellularBaselineAgent agent = make(phone, p);
  agent.start();
  world_.sim().run_until(TimePoint{} + seconds(600));
  EXPECT_EQ(agent.stats().heartbeats, 10u);  // t = 60, 120, ..., 600
  EXPECT_GE(world_.server().totals().delivered, 8u);
  // Prompt delivery: ~2.25 s RRC latency, no batching delay.
  EXPECT_LT(world_.server().totals().mean_latency_s(), 5.0);
}

TEST_F(BaselineAgentTest, PeriodExtensionStretchesEverything) {
  Phone& phone = add_phone();
  CellularBaselineAgent::Params p;
  p.app = app(60.0);
  p.period_factor = 2.0;
  p.with_data_traffic = false;
  CellularBaselineAgent agent = make(phone, p);
  EXPECT_EQ(agent.heartbeat_period(), seconds(120));
  agent.start();
  world_.sim().run_until(TimePoint{} + seconds(600));
  // Half the heartbeats of the 60 s baseline.
  EXPECT_EQ(agent.stats().heartbeats, 5u);  // t = 120, 240, 360, 480, 600
}

TEST_F(BaselineAgentTest, PiggybackRidesDataTransfers) {
  Phone& phone = add_phone();
  CellularBaselineAgent::Params p;
  p.app = app(60.0);
  p.piggyback = true;
  CellularBaselineAgent agent = make(phone, p);
  world_.register_session(phone, 3 * seconds(60));  // commercial 3T
  agent.start();
  world_.sim().run_until(TimePoint{} + seconds(3600));
  const auto& s = agent.stats();
  EXPECT_GT(s.heartbeats, 50u);
  EXPECT_GT(s.data_sends, 0u);
  // With share 0.5, data flows as often as heartbeats: most ride along.
  EXPECT_GT(s.piggybacked, 0u);
  // One heartbeat may still be pending at the horizon.
  EXPECT_LE(s.piggybacked + s.sent_alone, s.heartbeats);
  EXPECT_GE(s.piggybacked + s.sent_alone + 1, s.heartbeats);
  // No heartbeat may die waiting: everything reaches the server, on time
  // under the 3-period tolerance.
  EXPECT_EQ(world_.server().totals().offline_events, 0u);
}

TEST_F(BaselineAgentTest, PiggybackDeadlineSendsAloneWithoutData) {
  Phone& phone = add_phone();
  CellularBaselineAgent::Params p;
  p.app = app(60.0);
  p.piggyback = true;
  p.with_data_traffic = false;  // no data will ever come
  p.piggyback_margin = seconds(10);
  CellularBaselineAgent agent = make(phone, p);
  agent.start();
  world_.sim().run_until(TimePoint{} + seconds(400));
  const auto& s = agent.stats();
  EXPECT_GT(s.sent_alone, 0u);
  EXPECT_EQ(s.piggybacked, 0u);
  // Sent at expiry - margin => delayed ~50 s each, but never late.
  EXPECT_EQ(world_.server().totals().late, 0u);
  EXPECT_GT(world_.server().totals().mean_latency_s(), 30.0);
}

TEST_F(BaselineAgentTest, FastDormancySkipsTailsAndAddsScri) {
  Phone& cut = add_phone();
  Phone& normal = add_phone();
  CellularBaselineAgent::Params p;
  p.app = app(60.0);
  p.with_data_traffic = false;
  p.fast_dormancy = true;
  CellularBaselineAgent fd = make(cut, p);
  p.fast_dormancy = false;
  CellularBaselineAgent orig = make(normal, p);
  fd.start();
  orig.start();
  world_.sim().run_until(TimePoint{} + seconds(600));

  // Energy: FD avoids the 1174-µAh tails per heartbeat.
  EXPECT_LT(cut.cellular_charge().value, 0.6 * normal.cellular_charge().value);
  // Signaling: FD emits SCRI on top of the setup+release it still pays.
  EXPECT_GT(world_.bs().signaling().count_for(cut.id()),
            world_.bs().signaling().count_for(normal.id()) - 9);
  EXPECT_GT(world_.bs().signaling().count_of(
                radio::L3MessageType::signaling_connection_release_indication),
            0u);
}

TEST_F(BaselineAgentTest, StopCancelsPendingPiggyback) {
  Phone& phone = add_phone();
  CellularBaselineAgent::Params p;
  p.app = app(60.0);
  p.piggyback = true;
  p.with_data_traffic = false;
  CellularBaselineAgent agent = make(phone, p);
  agent.start();
  world_.sim().run_until(TimePoint{} + seconds(70));  // one pending beat
  agent.stop();
  world_.sim().run_until(TimePoint{} + seconds(600));
  EXPECT_EQ(agent.stats().sent_alone, 0u);
  EXPECT_EQ(world_.server().totals().delivered, 0u);
}

}  // namespace
}  // namespace d2dhb::core

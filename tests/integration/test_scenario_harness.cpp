// The Scenario assembly class itself: id assignment, session
// registration, rng forking determinism, aggregate accessors.
#include <gtest/gtest.h>

#include <memory>

#include "scenario/scenario.hpp"

namespace d2dhb::scenario {
namespace {

core::PhoneConfig at(double x, double y = 0.0) {
  core::PhoneConfig pc;
  pc.mobility =
      std::make_unique<mobility::StaticMobility>(mobility::Vec2{x, y});
  return pc;
}

TEST(ScenarioHarness, AssignsSequentialNodeIds) {
  Scenario world;
  EXPECT_EQ(world.add_phone(at(0)).id(), NodeId{1});
  EXPECT_EQ(world.add_phone(at(1)).id(), NodeId{2});
  EXPECT_EQ(world.add_phone(at(2)).id(), NodeId{3});
  EXPECT_EQ(world.phones().size(), 3u);
}

TEST(ScenarioHarness, RejectsPhoneWithoutMobility) {
  Scenario world;
  core::PhoneConfig pc;  // mobility null
  EXPECT_THROW(world.add_phone(std::move(pc)), std::invalid_argument);
}

TEST(ScenarioHarness, DefaultIsSingleCellAtOrigin) {
  Scenario world;
  EXPECT_EQ(world.cell_count(), 1u);
  core::Phone& phone = world.add_phone(at(500.0));
  EXPECT_EQ(world.cell_of(phone.id()), 0u);
  EXPECT_EQ(&world.serving_bs(phone), &world.bs(0));
}

TEST(ScenarioHarness, RegisterSessionOverloads) {
  Scenario world;
  core::Phone& phone = world.add_phone(at(0));
  world.register_session(phone, seconds(100));
  world.register_session(phone, seconds(200), AppId{4242});
  EXPECT_TRUE(world.server().online(phone.id(), AppId{phone.id().value}));
  EXPECT_TRUE(world.server().online(phone.id(), AppId{4242}));
  world.sim().run_until(TimePoint{} + seconds(150));
  EXPECT_FALSE(world.server().online(phone.id(), AppId{phone.id().value}));
  EXPECT_TRUE(world.server().online(phone.id(), AppId{4242}));
}

TEST(ScenarioHarness, DefaultPhonesShareOneProfileAcrossStrips) {
  Scenario::Params params;
  params.shard_plan = world::ShardPlan{3, 0.0, 300.0};
  Scenario world{params};
  for (int i = 0; i < 6; ++i) world.add_phone(at(50.0 * i));
  for (core::Phone* phone : world.phones()) {
    EXPECT_EQ(&phone->modem().profile(), radio::shared_wcdma_profile().get())
        << "node " << phone->id().value;
    EXPECT_EQ(&phone->wifi().profile(),
              d2d::shared_default_energy_profile().get())
        << "node " << phone->id().value;
  }
  // The phones span every strip (and so every strip arena).
  EXPECT_EQ(world.nodes().shard_of(NodeId{1}), 0u);
  EXPECT_EQ(world.nodes().shard_of(NodeId{3}), 1u);
  EXPECT_EQ(world.nodes().shard_of(NodeId{6}), 2u);
}

TEST(ScenarioHarness, ForkRngIsDeterministicPerSeed) {
  Scenario a{Scenario::Params{99, {}, {}, {}}};
  Scenario b{Scenario::Params{99, {}, {}, {}}};
  Rng ra = a.fork_rng();
  Rng rb = b.fork_rng();
  for (int i = 0; i < 32; ++i) EXPECT_EQ(ra.next_u64(), rb.next_u64());
}

// No id counter is shared between agents: each heartbeat's id is its
// (app, seq), so two phones' first beats differ only in the app half.
TEST(ScenarioHarness, AgentsMintIdsFromAppAndSeq) {
  Scenario world;
  core::Phone& a = world.add_phone(at(0));
  core::Phone& b = world.add_phone(at(1));
  core::OriginalAgent& first = world.add_original(a, apps::standard_app());
  core::OriginalAgent& second = world.add_original(b, apps::standard_app());
  first.add_app(apps::whatsapp());
  const net::HeartbeatMessage a1 = first.apps()[0]->emit_now();
  const net::HeartbeatMessage a2 = first.apps()[0]->emit_now();
  const net::HeartbeatMessage extra = first.apps()[1]->emit_now();
  const net::HeartbeatMessage b1 = second.apps()[0]->emit_now();
  EXPECT_EQ(a1.id, net::message_id(AppId{1}, 1));
  EXPECT_EQ(a2.id, net::message_id(AppId{1}, 2));
  EXPECT_EQ(extra.id, net::message_id(AppId{1002}, 1));
  EXPECT_EQ(b1.id, net::message_id(AppId{2}, 1));
}

TEST(ScenarioHarness, TotalL3SumsAllCells) {
  Scenario::Params params;
  params.cell_sites = {{0.0, 0.0}, {50.0, 0.0}, {100.0, 0.0}};
  Scenario world{params};
  world.bs(0).signaling().strip(0).record(
      world.sim().now(), NodeId{1}, radio::L3MessageType::measurement_report);
  world.bs(2).signaling().strip(0).record(
      world.sim().now(), NodeId{2}, radio::L3MessageType::measurement_report);
  world.bs(2).signaling().strip(0).record(
      world.sim().now(), NodeId{2}, radio::L3MessageType::measurement_report);
  EXPECT_EQ(world.total_l3(), 3u);
  EXPECT_EQ(world.cell_site(1).x, 50.0);
}

TEST(ScenarioHarness, RunForAdvancesSimTime) {
  Scenario world;
  world.run_for(seconds(42));
  EXPECT_EQ(world.sim().now(), TimePoint{} + seconds(42));
  world.run_for(seconds(8));
  EXPECT_EQ(world.sim().now(), TimePoint{} + seconds(50));
}

}  // namespace
}  // namespace d2dhb::scenario

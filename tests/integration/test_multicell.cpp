// Multi-cell behaviour: phones attach to the nearest base station, each
// cell keeps its own control-channel accounting, and relay aggregation
// relieves every cell's storm peak independently.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <tuple>
#include <vector>

#include "scenario/crowd.hpp"
#include "scenario/scenario.hpp"
#include "sim/engine.hpp"

namespace d2dhb::scenario {
namespace {

TEST(MultiCell, PhonesAttachToNearestSite) {
  Scenario::Params params;
  params.cell_sites = {{0.0, 0.0}, {100.0, 0.0}};
  Scenario world{params};
  ASSERT_EQ(world.cell_count(), 2u);

  auto phone_at = [&](double x) -> core::Phone& {
    core::PhoneConfig pc;
    pc.mobility = std::make_unique<mobility::StaticMobility>(
        mobility::Vec2{x, 0.0});
    return world.add_phone(std::move(pc));
  };
  core::Phone& west = phone_at(10.0);
  core::Phone& east = phone_at(90.0);
  core::Phone& middle = phone_at(49.0);
  EXPECT_EQ(world.cell_of(west.id()), 0u);
  EXPECT_EQ(world.cell_of(east.id()), 1u);
  EXPECT_EQ(world.cell_of(middle.id()), 0u);
}

TEST(MultiCell, FarPhoneAttachesToTheDefaultLoneSite) {
  Scenario world;
  ASSERT_EQ(world.cell_count(), 1u);
  for (const mobility::Vec2 at :
       {mobility::Vec2{12000.0, 0.0}, mobility::Vec2{-7200.0, -9600.0}}) {
    core::PhoneConfig pc;
    pc.mobility = std::make_unique<mobility::StaticMobility>(at);
    EXPECT_EQ(world.cell_of(world.add_phone(std::move(pc)).id()), 0u);
  }
}

TEST(MultiCell, SignalingIsAccountedPerServingCell) {
  Scenario::Params params;
  params.cell_sites = {{0.0, 0.0}, {100.0, 0.0}};
  Scenario world{params};
  apps::AppProfile app = apps::standard_app();
  app.heartbeat_period = seconds(20);
  app.expiry = seconds(20);

  auto add_original = [&](double x) -> core::Phone& {
    core::PhoneConfig pc;
    pc.mobility = std::make_unique<mobility::StaticMobility>(
        mobility::Vec2{x, 0.0});
    core::Phone& phone = world.add_phone(std::move(pc));
    auto& agent = world.add_original(phone, app);
    agent.apps().front()->set_max_emissions(3);
    agent.start();
    return phone;
  };
  core::Phone& west = add_original(5.0);
  add_original(95.0);
  add_original(96.0);
  world.sim().run_until(TimePoint{} + seconds(120));

  // West cell: 1 phone × 3 heartbeats × 8 L3; east: 2 phones.
  EXPECT_EQ(world.bs(0).signaling().total(), 24u);
  EXPECT_EQ(world.bs(1).signaling().total(), 48u);
  EXPECT_EQ(world.total_l3(), 72u);
  EXPECT_EQ(world.bs(0).signaling().count_for(west.id()), 24u);
  EXPECT_EQ(world.bs(1).signaling().count_for(west.id()), 0u);
}

TEST(MultiCell, WorstCellPeakTracksTheBusiestCell) {
  Scenario::Params params;
  params.cell_sites = {{0.0, 0.0}, {100.0, 0.0}};
  Scenario world{params};
  // Burst 5 records into cell 1, 1 into cell 0, same instant.
  for (int i = 0; i < 5; ++i) {
    world.bs(1).signaling().strip(0).record(
        world.sim().now(), NodeId{2}, radio::L3MessageType::measurement_report);
  }
  world.bs(0).signaling().strip(0).record(
      world.sim().now(), NodeId{1}, radio::L3MessageType::measurement_report);
  EXPECT_EQ(world.worst_cell_peak(seconds(10)), 5u);
}

/// One cell fed by 24 original-scheme phones spread along 240 m and
/// homed on `strips` strips, run for five minutes on `threads` workers.
/// Phone i's beats are offset by (i % 4) quarter seconds, so phones on
/// different strips record L3 messages at the same instants.
std::unique_ptr<Scenario> cell_over_strips(std::size_t strips,
                                           std::size_t threads) {
  Scenario::Params params;
  params.shard_plan = world::ShardPlan{strips, 0.0, 240.0};
  auto world = std::make_unique<Scenario>(params);
  apps::AppProfile app = apps::standard_app();
  app.heartbeat_period = seconds(20);
  app.expiry = seconds(20);
  for (int i = 0; i < 24; ++i) {
    core::PhoneConfig pc;
    pc.mobility = std::make_unique<mobility::StaticMobility>(
        mobility::Vec2{5.0 + 10.0 * i, 0.0});
    core::Phone& phone = world->add_phone(std::move(pc));
    world->add_original(phone, app).start(milliseconds(250 * (i % 4)));
  }
  sim::RunOptions options;
  options.threads = threads;
  sim::run(world->sim(), TimePoint{} + seconds(300), options);
  return world;
}

using RecordKey = std::tuple<TimePoint, std::uint64_t, radio::L3MessageType>;

std::vector<RecordKey> keys_of(
    const std::vector<radio::SignalingCounter::Record>& records) {
  std::vector<RecordKey> keys;
  for (const auto& r : records) keys.emplace_back(r.when, r.node.value, r.type);
  return keys;
}

// A cell keeps one counter per strip. Whatever the strip count, its
// merged reads equal one reference counter fed the same records, and
// its merged record order does not depend on the thread count.
TEST(MultiCell, StripCountersMergeToTheOneCounterAnswer) {
  const auto one = cell_over_strips(1, 1);
  const radio::CellSignaling& reference = one->bs(0).signaling();
  ASSERT_GT(reference.total(), 0u);
  std::vector<RecordKey> reference_keys = keys_of(reference.records());
  std::sort(reference_keys.begin(), reference_keys.end());
  for (const std::size_t strips : {2u, 4u}) {
    SCOPED_TRACE(strips);
    const auto serial = cell_over_strips(strips, 1);
    const auto threaded = cell_over_strips(strips, 2);
    radio::CellSignaling& cell = serial->bs(0).signaling();
    EXPECT_GT(cell.strip(strips - 1).total(), 0u);
    EXPECT_EQ(cell.total(), reference.total());
    for (std::size_t t = 0;
         t < static_cast<std::size_t>(radio::L3MessageType::kCount); ++t) {
      const auto type = static_cast<radio::L3MessageType>(t);
      EXPECT_EQ(cell.count_of(type), reference.count_of(type));
    }
    for (const Duration window : {seconds(1), seconds(10), seconds(60)}) {
      EXPECT_EQ(cell.peak_rate(window), reference.peak_rate(window));
    }
    const std::vector<RecordKey> merged = keys_of(cell.records());
    EXPECT_TRUE(std::is_sorted(
        merged.begin(), merged.end(),
        [](const RecordKey& a, const RecordKey& b) {
          return std::get<0>(a) < std::get<0>(b);
        }));
    std::vector<RecordKey> sorted = merged;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(sorted, reference_keys);
    EXPECT_EQ(keys_of(threaded->bs(0).signaling().records()), merged);
  }
}

TEST(MultiCell, CrowdAcrossFourCellsStillSavesEverywhere) {
  CrowdConfig config;
  config.phones = 40;
  config.relay_fraction = 0.25;
  config.area_m = 120.0;
  config.clusters = 4;
  config.cluster_stddev_m = 6.0;
  config.duration_s = 1800.0;
  config.cell_grid = 4;
  const CrowdMetrics d2d = run_d2d_crowd(config);
  const CrowdMetrics orig = run_original_crowd(config);
  ASSERT_EQ(d2d.l3_per_cell.size(), 4u);
  ASSERT_EQ(orig.l3_per_cell.size(), 4u);
  // Total and per-cell traffic both drop (cells with phones in them).
  EXPECT_LT(d2d.total_l3, orig.total_l3);
  for (std::size_t c = 0; c < 4; ++c) {
    EXPECT_LE(d2d.l3_per_cell[c], orig.l3_per_cell[c]) << "cell " << c;
  }
  EXPECT_EQ(d2d.server.offline_events, 0u);
}

TEST(MultiCell, RelayAggregationMayCrossCellBoundaries) {
  // A relay near a cell edge may serve UEs camped on the neighbouring
  // cell: the UEs' heartbeats then ride the relay's cell. Totals shift
  // between cells but nothing is lost.
  Scenario::Params params;
  params.cell_sites = {{0.0, 0.0}, {30.0, 0.0}};
  Scenario world{params};
  apps::AppProfile app = apps::standard_app();
  app.heartbeat_period = seconds(20);
  app.expiry = seconds(20);

  core::PhoneConfig rc;
  rc.mobility = std::make_unique<mobility::StaticMobility>(
      mobility::Vec2{14.0, 0.0});  // cell 0 side of the border
  core::Phone& relay_phone = world.add_phone(std::move(rc));
  core::RelayAgent::Params rp;
  rp.own_app = app;
  rp.scheduler.max_own_delay = seconds(20);
  rp.scheduler.deadline_margin = seconds(2);
  core::RelayAgent& relay = world.add_relay(relay_phone, rp);

  core::PhoneConfig uc;
  uc.mobility = std::make_unique<mobility::StaticMobility>(
      mobility::Vec2{16.0, 0.0});  // cell 1 side, 2 m from the relay
  core::Phone& ue_phone = world.add_phone(std::move(uc));
  EXPECT_EQ(world.cell_of(relay_phone.id()), 0u);
  EXPECT_EQ(world.cell_of(ue_phone.id()), 1u);
  core::UeAgent::Params up;
  up.app = app;
  up.feedback_timeout = seconds(40);
  core::UeAgent& ue = world.add_ue(ue_phone, up);
  world.register_session(ue_phone, 3 * seconds(20));
  relay.start();
  ue.start();
  world.sim().run_until(TimePoint{} + seconds(200));

  // The UE's traffic rides cell 0; cell 1's control channel stays quiet.
  EXPECT_GT(world.bs(0).signaling().total(), 0u);
  EXPECT_EQ(world.bs(1).signaling().total(), 0u);
  EXPECT_GT(ue.stats().sent_via_d2d, 0u);
  EXPECT_EQ(world.server().totals().offline_events, 0u);
}

}  // namespace
}  // namespace d2dhb::scenario

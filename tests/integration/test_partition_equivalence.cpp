// Partition equivalence: how the world is cut into strips is an
// execution detail. One hand-placed world — phone clusters in the
// interiors of four 120 m strips, so no relay/UE pair within D2D range
// straddles a strip boundary — is built with 1, 2 and 4 strips over
// the same area and run for 900 s with lossy discovery (a 0.2 miss
// probability) and noisy distance estimates. Every discovery draw and
// every random relay pick is keyed by who measured whom and when, not
// drawn from a per-strip stream, so the full metrics export must be
// byte-identical across the three partitions, and across thread
// counts on the four-strip one.
#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <memory>
#include <sstream>
#include <string>

#include "metrics/export.hpp"
#include "scenario/scenario.hpp"
#include "sim/engine.hpp"

namespace d2dhb::scenario {
namespace {

constexpr double kAreaM = 480.0;
constexpr double kDurationS = 900.0;
/// Cluster centers, each 60 m from the nearest boundary of the 4-strip
/// cut (120, 240 and 360 m) and so also of the 2-strip cut (240 m).
constexpr double kCenterX[] = {60.0, 180.0, 300.0, 420.0};
constexpr double kCenterY[] = {50.0, 150.0};
constexpr int kPerCluster = 12;

struct Arm {
  std::string metrics_json;
  std::uint64_t wall_pairs{0};
  std::uint64_t delivered{0};
  std::uint64_t forwarded{0};
};

Arm run_arm(std::size_t strips, std::size_t threads) {
  Scenario::Params params;
  params.seed = 5150;
  params.medium.discovery_miss_probability = 0.2;
  params.medium.rssi_noise_stddev_m = 1.5;
  params.shard_plan = world::ShardPlan{strips, 0.0, kAreaM};
  Scenario world{params};
  const apps::AppProfile app = apps::standard_app();
  const Duration period = app.heartbeat_period;

  std::size_t i = 0;
  const std::size_t phones = std::size(kCenterX) * std::size(kCenterY) *
                             static_cast<std::size_t>(kPerCluster);
  for (const double cx : kCenterX) {
    for (const double cy : kCenterY) {
      for (int k = 0; k < kPerCluster; ++k, ++i) {
        // A 4 x 3 grid at 4 m pitch; every fourth phone relays.
        const mobility::Vec2 at{cx - 6.0 + 4.0 * (k % 4),
                                cy - 4.0 + 4.0 * (k / 4)};
        core::PhoneConfig pc;
        pc.mobility = std::make_unique<mobility::StaticMobility>(at);
        core::Phone& phone = world.add_phone(std::move(pc));
        const Duration offset = seconds(
            to_seconds(period) *
            (0.1 + 0.8 * static_cast<double>(i) / static_cast<double>(phones)));
        const sim::ShardGuard home(world.sim(),
                                   world.nodes().shard_of(phone.id()));
        if (k % 4 == 0) {
          core::RelayAgent::Params rp;
          rp.own_app = app;
          rp.scheduler.capacity = 3;
          rp.scheduler.max_own_delay = period;
          world.add_relay(phone, rp).start(offset);
        } else {
          core::UeAgent::Params up;
          up.app = app;
          // Half the UEs pick at random among qualifying relays, which
          // exercises the detector's keyed pick.
          up.match.strategy =
              k % 2 == 0 ? core::MatchStrategy::random
                         : core::MatchStrategy::nearest;
          up.feedback_timeout = period + seconds(30);
          up.reassess_interval = seconds(60);
          world.add_ue(phone, up).start(offset);
        }
        world.register_session(phone, 3 * period);
      }
    }
  }

  Arm arm;
  arm.wall_pairs = strip_wall_pairs(world);
  sim::RunOptions options;
  options.threads = threads;
  sim::run(world.sim(), TimePoint{} + seconds(kDurationS), options);
  std::ostringstream os;
  metrics::export_json(world.metrics_snapshot(), os);
  arm.metrics_json = os.str();
  arm.delivered = world.server().totals().delivered;
  for (core::RelayAgent* relay : world.relays()) {
    arm.forwarded += relay->stats().forwarded_received;
  }
  return arm;
}

TEST(PartitionEquivalence, StripCountDoesNotChangeTheExport) {
  const Arm one = run_arm(1, 1);
  // The layout is what makes the comparison fair: no pair the one-strip
  // world could link is split by either cut.
  EXPECT_EQ(one.wall_pairs, 0u);
  // The run is not trivial: D2D forwarding happened.
  EXPECT_GT(one.delivered, 0u);
  EXPECT_GT(one.forwarded, 0u);

  for (const std::size_t strips : {2u, 4u}) {
    const Arm cut = run_arm(strips, 1);
    EXPECT_EQ(cut.wall_pairs, 0u) << strips << " strips";
    EXPECT_EQ(cut.delivered, one.delivered) << strips << " strips";
    EXPECT_EQ(cut.forwarded, one.forwarded) << strips << " strips";
    EXPECT_EQ(cut.metrics_json, one.metrics_json) << strips << " strips";
  }
  const Arm threaded = run_arm(4, 2);
  EXPECT_EQ(threaded.metrics_json, one.metrics_json) << "4 strips, 2 threads";
}

TEST(PartitionEquivalence, StripWallCountsPairsSplitByACut) {
  // One relay and one UE 10 m apart across the 240 m boundary of a
  // 2-strip world: one pair in range, on different strips.
  Scenario::Params params;
  params.shard_plan = world::ShardPlan{2, 0.0, kAreaM};
  Scenario world{params};
  const auto add = [&world](mobility::Vec2 at) -> core::Phone& {
    core::PhoneConfig pc;
    pc.mobility = std::make_unique<mobility::StaticMobility>(at);
    return world.add_phone(std::move(pc));
  };
  core::Phone& relay_phone = add({235.0, 10.0});
  core::Phone& ue_phone = add({245.0, 10.0});
  core::Phone& same_side = add({230.0, 10.0});
  world.add_relay(relay_phone, {}).start(seconds(1));
  world.add_ue(ue_phone, {});
  world.add_ue(same_side, {});
  EXPECT_EQ(strip_wall_pairs(world), 1u);
  // A relay that no longer listens answers no scan, so it is no wall.
  world.relays().front()->stop();
  EXPECT_EQ(strip_wall_pairs(world), 0u);
}

}  // namespace
}  // namespace d2dhb::scenario

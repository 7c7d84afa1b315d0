// The compressed pair (Section V setup) observed event by event: each
// phone's RRC machine walks only legal edges and settles in IDLE once
// traffic stops, and the relay links up before it flushes a bundle.
// Built like scenario/compressed_pair.cpp, but stepped one event at a
// time so the state between events is visible.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <set>
#include <vector>

#include "apps/app_profile.hpp"
#include "d2d/technology.hpp"
#include "scenario/scenario.hpp"

namespace d2dhb::scenario {
namespace {

using radio::RrcState;

constexpr double kPeriodS = 20.0;

apps::AppProfile compressed_app() {
  apps::AppProfile app = apps::standard_app();
  app.heartbeat_period = seconds(kPeriodS);
  app.heartbeat_size = Bytes{54};
  app.expiry = seconds(kPeriodS);
  return app;
}

core::PhoneConfig phone_at(mobility::Vec2 position) {
  core::PhoneConfig pc;  // the shared WCDMA and Wi-Fi Direct profiles
  pc.mobility = std::make_unique<mobility::StaticMobility>(position);
  return pc;
}

/// One RRC edge the modem may take without fast dormancy or
/// force_idle(): setup, burst start and end, the DCH -> FACH -> IDLE
/// tails, and FACH -> DCH reconfiguration.
bool legal_edge(RrcState from, RrcState to) {
  switch (from) {
    case RrcState::idle: return to == RrcState::promoting;
    case RrcState::promoting: return to == RrcState::high;
    case RrcState::high:
      return to == RrcState::transmitting || to == RrcState::low;
    case RrcState::transmitting: return to == RrcState::high;
    case RrcState::low:
      return to == RrcState::promoting || to == RrcState::idle;
  }
  return false;
}

/// Whether exactly `steps` legal edges lead from `from` to `to`. One
/// event may take several (a finished promotion enters HIGH and starts
/// the burst at once).
bool reachable_in(RrcState from, RrcState to, std::uint64_t steps) {
  constexpr RrcState kAll[] = {RrcState::idle, RrcState::promoting,
                               RrcState::high, RrcState::transmitting,
                               RrcState::low};
  std::set<RrcState> frontier{from};
  for (std::uint64_t i = 0; i < steps; ++i) {
    std::set<RrcState> next;
    for (const RrcState s : frontier) {
      for (const RrcState t : kAll) {
        if (legal_edge(s, t)) next.insert(t);
      }
    }
    frontier = std::move(next);
  }
  return frontier.contains(to);
}

TEST(PairWalk, OriginalRrcWalkIsLegalAndEndsIdle) {
  constexpr std::size_t kTransmissions = 3;
  Scenario world;
  const apps::AppProfile app = compressed_app();
  std::vector<core::Phone*> phones;
  for (const double x : {0.0, 1.0}) {
    core::Phone& phone = world.add_phone(phone_at({x, 0.0}));
    world.add_original(phone, app).apps().front()->set_max_emissions(
        kTransmissions);
    world.register_session(phone, 3 * app.heartbeat_period);
    phones.push_back(&phone);
  }
  for (auto& agent : world.originals()) agent->start();

  std::vector<RrcState> state(phones.size(), RrcState::idle);
  std::vector<std::uint64_t> transitions(phones.size(), 0);
  for (std::size_t i = 0; i < phones.size(); ++i) {
    ASSERT_EQ(phones[i]->modem().state(), RrcState::idle);
  }
  const TimePoint horizon =
      TimePoint{} + seconds(kPeriodS * (kTransmissions + 1) + 30.0);
  while (world.sim().step(horizon)) {
    for (std::size_t i = 0; i < phones.size(); ++i) {
      const radio::CellularModem& modem = phones[i]->modem();
      const std::uint64_t taken = modem.rrc_transitions() - transitions[i];
      ASSERT_TRUE(reachable_in(state[i], modem.state(), taken))
          << "node " << phones[i]->id().value << " went "
          << radio::to_string(state[i]) << " -> "
          << radio::to_string(modem.state()) << " in " << taken
          << " transitions at t=" << to_seconds(world.sim().now());
      state[i] = modem.state();
      transitions[i] = modem.rrc_transitions();
    }
  }
  for (std::size_t i = 0; i < phones.size(); ++i) {
    // Each heartbeat pays a full cycle: IDLE -> PROMOTING -> HIGH ->
    // TRANSMITTING -> HIGH -> LOW -> IDLE.
    EXPECT_EQ(transitions[i], 6 * kTransmissions) << "node " << i + 1;
    EXPECT_EQ(state[i], RrcState::idle) << "node " << i + 1;
  }
}

TEST(PairWalk, RelayLinksUpBeforeItsFirstFlush) {
  constexpr std::size_t kTransmissions = 2;
  const d2d::D2dTechnology tech = d2d::wifi_direct_tech();
  Scenario world{Scenario::Params{1, tech.medium, {}}};
  const apps::AppProfile app = compressed_app();

  core::Phone& relay_phone = world.add_phone(phone_at({0.0, 0.0}));
  core::RelayAgent::Params relay_params;
  relay_params.own_app = app;
  relay_params.scheduler.capacity = 7;
  relay_params.scheduler.max_own_delay = app.heartbeat_period;
  relay_params.scheduler.deadline_margin = seconds(kPeriodS / 10.0);
  core::RelayAgent& relay = world.add_relay(relay_phone, relay_params);
  relay.own_app().set_max_emissions(kTransmissions);
  world.register_session(relay_phone, 3 * app.heartbeat_period);

  core::Phone& ue_phone = world.add_phone(phone_at({1.0, 0.0}));
  core::UeAgent::Params ue_params;
  ue_params.app = app;
  ue_params.match.max_distance = Meters{1e9};
  ue_params.feedback_timeout = seconds(1.5 * kPeriodS + 10.0);
  core::UeAgent& ue = world.add_ue(ue_phone, ue_params);
  ue.app().set_max_emissions(kTransmissions);
  world.register_session(ue_phone, 3 * app.heartbeat_period);

  relay.start();
  ue.start(app.heartbeat_period);

  std::optional<TimePoint> link_up, first_flush;
  const TimePoint horizon =
      TimePoint{} + seconds(kPeriodS * (kTransmissions + 1) + 30.0);
  while (world.sim().step(horizon)) {
    if (!link_up && relay_phone.wifi().link_count() > 0) {
      link_up = world.sim().now();
    }
    if (!first_flush && relay.scheduler().stats().flushes() > 0) {
      first_flush = world.sim().now();
    }
  }
  ASSERT_TRUE(link_up.has_value());
  ASSERT_TRUE(first_flush.has_value());
  EXPECT_LT(*link_up, *first_flush);
}

}  // namespace
}  // namespace d2dhb::scenario

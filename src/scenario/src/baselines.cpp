#include "scenario/baselines.hpp"

#include <cmath>

#include "common/table.hpp"
#include <memory>

#include "core/baseline_agent.hpp"
#include "core/relay_agent.hpp"
#include "core/ue_agent.hpp"
#include "scenario/scenario.hpp"

namespace d2dhb::scenario {

namespace {

core::Phone& add_static_phone(Scenario& world, mobility::Vec2 position) {
  core::PhoneConfig pc;
  pc.mobility = std::make_unique<mobility::StaticMobility>(position);
  return world.add_phone(std::move(pc));
}

StrategyMetrics collect(Scenario& world, std::string name,
                        double detection_s, std::string note) {
  StrategyMetrics m;
  m.name = std::move(name);
  m.total_l3 = world.bs().signaling().total();
  for (auto& phone : world.phones()) {
    m.total_radio_uah += phone->radio_charge().value;
  }
  const auto totals = world.server().totals();
  m.mean_latency_s = totals.mean_latency_s();
  m.heartbeats_delivered = totals.delivered;
  m.offline_events = totals.offline_events;
  m.offline_detection_s = detection_s;
  m.note = std::move(note);
  m.metrics = world.metrics_snapshot();
  return m;
}

StrategyMetrics run_cellular_strategy(
    const BaselineConfig& config, const std::string& name,
    const core::CellularBaselineAgent::Params& agent_params) {
  Scenario world{Scenario::Params{config.seed, {}, {}}};
  std::vector<std::unique_ptr<core::CellularBaselineAgent>> agents;
  for (std::size_t i = 0; i < config.phones; ++i) {
    core::Phone& phone = add_static_phone(
        world, mobility::Vec2{static_cast<double>(i), 0.0});
    agents.push_back(std::make_unique<core::CellularBaselineAgent>(
        world.sim(), phone, agent_params, world.bs(), world.fork_rng()));
    // Server tolerance: ~3 announced periods.
    world.register_session(phone, 3 * agents.back()->heartbeat_period());
  }
  for (auto& agent : agents) agent->start();
  world.sim().run_until(TimePoint{} + seconds(config.duration_s));

  std::uint64_t piggybacked = 0, heartbeats = 0;
  for (auto& agent : agents) {
    piggybacked += agent->stats().piggybacked;
    heartbeats += agent->stats().heartbeats;
  }
  std::string note;
  if (agent_params.piggyback && heartbeats > 0) {
    note = "piggybacked " +
           std::to_string(100 * piggybacked / std::max<std::uint64_t>(
                                                  heartbeats, 1)) +
           "% of heartbeats";
  }
  const double detection_s =
      3.0 * to_seconds(agent_params.app.heartbeat_period) *
      agent_params.period_factor;
  return collect(world, name, detection_s, note);
}

}  // namespace

StrategyMetrics run_baseline_original(const BaselineConfig& config) {
  core::CellularBaselineAgent::Params p;
  p.app = config.app;
  return run_cellular_strategy(config, "original", p);
}

StrategyMetrics run_baseline_period_extension(const BaselineConfig& config,
                                              double factor) {
  core::CellularBaselineAgent::Params p;
  p.app = config.app;
  p.period_factor = factor;
  return run_cellular_strategy(
      config, "period x" + Table::num(factor, 1), p);
}

StrategyMetrics run_baseline_piggyback(const BaselineConfig& config) {
  core::CellularBaselineAgent::Params p;
  p.app = config.app;
  p.piggyback = true;
  return run_cellular_strategy(config, "piggyback", p);
}

StrategyMetrics run_baseline_fast_dormancy(const BaselineConfig& config) {
  core::CellularBaselineAgent::Params p;
  p.app = config.app;
  p.fast_dormancy = true;
  return run_cellular_strategy(config, "fast dormancy", p);
}

StrategyMetrics run_d2d_framework_arm(const BaselineConfig& config) {
  Scenario world{Scenario::Params{config.seed, {}, {}}};
  const auto relay_count = static_cast<std::size_t>(std::round(
      config.relay_fraction * static_cast<double>(config.phones)));

  // Phones in a line, 2 m apart — everyone within D2D reach of a relay.
  std::vector<core::Phone*> phones;
  for (std::size_t i = 0; i < config.phones; ++i) {
    phones.push_back(&add_static_phone(
        world,
        mobility::Vec2{2.0 * static_cast<double>(i % 6),
                       2.0 * static_cast<double>(i / 6)}));
  }
  for (std::size_t i = 0; i < config.phones; ++i) {
    if (i < relay_count) {
      core::RelayAgent::Params rp;
      rp.own_app = config.app;
      rp.scheduler.max_own_delay = config.app.heartbeat_period;
      core::RelayAgent& relay = world.add_relay(*phones[i], rp);
      relay.start(seconds(10.0 + static_cast<double>(i)));
    } else {
      core::UeAgent::Params up;
      up.app = config.app;
      up.feedback_timeout = config.app.heartbeat_period + seconds(30);
      core::UeAgent& ue = world.add_ue(*phones[i], up);
      ue.start(seconds(10.0 + 3.0 * static_cast<double>(i)));
    }
    world.register_session(*phones[i], 3 * config.app.heartbeat_period);
  }

  // Identical chat-data load, carried over each phone's own cellular
  // link (the framework only relays heartbeats).
  std::vector<std::unique_ptr<apps::MixedTrafficGenerator>> data_gens;
  for (core::Phone* phone : phones) {
    data_gens.push_back(std::make_unique<apps::MixedTrafficGenerator>(
        world.sim(), config.app, world.fork_rng(),
        [&world, phone](apps::MixedTrafficGenerator::Kind kind,
                        Bytes size) {
          if (kind != apps::MixedTrafficGenerator::Kind::data) return;
          net::UplinkBundle bundle;
          bundle.sender = phone->id();
          bundle.extra_payload = size;
          phone->modem().transmit(std::move(bundle));
        }));
    data_gens.back()->start();
  }

  world.sim().run_until(TimePoint{} + seconds(config.duration_s));

  std::uint64_t forwarded = 0, ue_heartbeats = 0;
  for (auto& relay : world.relays()) {
    forwarded += relay->stats().forwarded_received;
  }
  for (auto& ue : world.ues()) ue_heartbeats += ue->stats().heartbeats;
  std::string note;
  if (ue_heartbeats > 0) {
    note = "via relay " +
           std::to_string(100 * forwarded / ue_heartbeats) +
           "% of UE heartbeats";
  }
  return collect(world, "D2D framework (paper)",
                 3.0 * to_seconds(config.app.heartbeat_period),
                 std::move(note));
}

std::vector<StrategyMetrics> run_all_strategies(
    const BaselineConfig& config) {
  return {
      run_baseline_original(config),
      run_baseline_period_extension(config, 2.0),
      run_baseline_piggyback(config),
      run_baseline_fast_dormancy(config),
      run_d2d_framework_arm(config),
  };
}

}  // namespace d2dhb::scenario

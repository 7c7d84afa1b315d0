#include "scenario/crowd.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <utility>

#include "common/memory.hpp"
#include "core/operator_selection.hpp"
#include "scenario/scenario.hpp"
#include "sim/engine.hpp"

namespace d2dhb::scenario {

namespace {

/// Phone i's model. `key` is the world's one mobility key and node ids
/// are 1..N in insertion order, so phone i walks as node i + 1: both
/// arms of a seed draw the key in the same place (draw_crowd) and walk
/// their mobile phones on the same trajectories.
std::unique_ptr<mobility::MobilityModel> make_mobility(
    const CrowdConfig& config, std::size_t i, mobility::Vec2 start,
    bool moves, std::uint64_t key) {
  if (!moves) return std::make_unique<mobility::StaticMobility>(start);
  mobility::RandomWaypoint::Params params;
  params.area_min = {0.0, 0.0};
  params.area_max = {config.area_m, config.area_m};
  params.min_speed_mps = 0.3;
  params.max_speed_mps = 1.2;
  params.max_pause = seconds(60);
  return std::make_unique<mobility::RandomWaypoint>(params, start, key,
                                                    NodeId{i + 1});
}

/// Kernels the world is cut into — pure geometry, never a tuning knob:
/// one vertical strip per 120 m of area width (four D2D ranges, so
/// strip confinement only trims boundary-band pairs), floored at one
/// strip and capped by the event-id encoding. Every config decides its
/// own partition this way, which is what keeps results independent of
/// CrowdConfig::threads: it only says how many threads drive the
/// partition.
std::size_t strip_count(const CrowdConfig& config) {
  const auto strips = static_cast<std::size_t>(config.area_m / 120.0);
  return std::clamp<std::size_t>(strips, 1, sim::EventKernel::kMaxShards);
}

Scenario::Params world_params(const CrowdConfig& config,
                              std::vector<mobility::Vec2> sites) {
  Scenario::Params params;
  params.seed = config.seed;
  params.medium.grid_cell_m = config.grid_cell_m;
  params.medium.legacy_scan = config.legacy_scan;
  params.cell_sites = std::move(sites);
  params.shard_plan =
      world::ShardPlan{strip_count(config), 0.0, config.area_m};
  params.agent_memory =
      config.heap_agents ? Arena::Mode::heap : Arena::Mode::pooled;
  return params;
}

std::vector<mobility::Vec2> cell_grid_sites(const CrowdConfig& config) {
  std::vector<mobility::Vec2> sites;
  if (config.cell_grid <= 1) return sites;  // default single cell
  // Square-ish grid covering the area.
  const auto side = static_cast<std::size_t>(
      std::ceil(std::sqrt(static_cast<double>(config.cell_grid))));
  const double step = config.area_m / static_cast<double>(side);
  for (std::size_t i = 0; i < config.cell_grid; ++i) {
    const double x = (0.5 + static_cast<double>(i % side)) * step;
    const double y = (0.5 + static_cast<double>(i / side)) * step;
    sites.push_back({x, y});
  }
  return sites;
}

void collect_common(Scenario& world, const sim::RunStats& run_stats,
                    CrowdMetrics& metrics) {
  metrics.phones = world.phones().size();
  metrics.total_l3 = world.total_l3();
  metrics.peak_l3_per_10s = world.worst_cell_peak(seconds(10));
  for (std::size_t c = 0; c < world.cell_count(); ++c) {
    metrics.l3_per_cell.push_back(world.bs(c).signaling().total());
  }
  for (auto& phone : world.phones()) {
    metrics.total_radio_uah += phone->radio_charge().value;
  }
  if (!world.phones().empty()) {
    metrics.mean_radio_uah_per_phone =
        metrics.total_radio_uah / static_cast<double>(world.phones().size());
  }
  metrics.server = world.server().totals();
  metrics.heartbeats_delivered = metrics.server.delivered;
  metrics.credits_issued = world.ledger().total_issued();
  metrics.sim_events = world.sim().executed_events();
  metrics.cross_shard_posted = run_stats.cross_posted;
  metrics.cross_shard_delivered = run_stats.cross_delivered;
  metrics.cross_min_slack_us = run_stats.min_slack_us;
  metrics.shard_events_executed = run_stats.shard_events_executed;
  metrics.shard_mailbox_delivered = run_stats.shard_mailbox_delivered;
  metrics.profile = run_stats.profile;
  const Arena::Stats arena = world.arena_stats();
  metrics.arena_bytes_allocated = arena.bytes_allocated;
  metrics.arena_bytes_reserved = arena.bytes_reserved;
  metrics.arena_objects = arena.objects;
  metrics.peak_rss_bytes = peak_rss_bytes();
  metrics.metrics = world.metrics_snapshot();
}

/// What either arm of a seed draws from the world stream, in one order:
/// the layout, the operator's relay selection (when a policy is set) and
/// the mobility key. The original arm ignores the relay choice but
/// still makes its draw, so phone i gets the same key in both arms.
struct CrowdDraws {
  std::vector<mobility::Vec2> positions;
  std::vector<bool> is_relay;
  double relay_coverage{0.0};
  std::uint64_t mobility_key{0};
};

CrowdDraws draw_crowd(Scenario& world, const CrowdConfig& config) {
  CrowdDraws draws;
  Rng layout_rng = world.fork_rng();
  draws.positions = mobility::clustered_crowd(
      config.phones, config.clusters, {0.0, 0.0},
      {config.area_m, config.area_m}, config.cluster_stddev_m, layout_rng);

  const auto relay_count = static_cast<std::size_t>(
      std::round(config.relay_fraction * static_cast<double>(config.phones)));

  // Which phones relay: operator-selected or simply the first N. Node
  // ids are assigned 1..N in insertion order.
  std::vector<core::RelayCandidate> candidates;
  candidates.reserve(config.phones);
  for (std::size_t i = 0; i < config.phones; ++i) {
    candidates.push_back(core::RelayCandidate{
        NodeId{i + 1}, draws.positions[i], 1.0, true});
  }
  draws.is_relay.assign(config.phones, false);
  if (config.operator_policy.has_value()) {
    core::SelectionConfig selection;
    selection.policy = *config.operator_policy;
    selection.coverage_radius = Meters{config.match_max_distance_m};
    selection.max_relays = relay_count;
    Rng selection_rng = world.fork_rng();
    const core::SelectionResult chosen =
        core::select_relays(candidates, selection, selection_rng);
    for (const NodeId node : chosen.relays) {
      draws.is_relay[node.value - 1] = true;
    }
    draws.relay_coverage = chosen.covered_fraction;
  } else {
    std::vector<NodeId> relays;
    for (std::size_t i = 0; i < relay_count; ++i) {
      draws.is_relay[i] = true;
      relays.push_back(candidates[i].node);
    }
    // Layout coverage accounting for the first-N layout too — the same
    // grid-backed radius counting the operator policies use.
    draws.relay_coverage = core::coverage_of(
        candidates, relays, Meters{config.match_max_distance_m});
  }

  // One word of the world stream, drawn after the layout and relay
  // selection draws so those do not depend on whether phones move. The
  // medium's key is an earlier word.
  draws.mobility_key = world.fork_rng().next_u64();
  return draws;
}

}  // namespace

sim::RunStats run_crowd_world(Scenario& world, const CrowdConfig& config) {
  const TimePoint end = TimePoint{} + seconds(config.duration_s);
  sim::RunOptions options;
  options.threads = config.threads;
  options.profile = config.profile;
  options.profiler = config.profiler;
  return sim::run(world.sim(), end, options);
}

CrowdWorld build_d2d_crowd(const CrowdConfig& config) {
  CrowdWorld built;
  built.world = std::make_unique<Scenario>(
      world_params(config, cell_grid_sites(config)));
  Scenario& world = *built.world;
  const CrowdDraws draws = draw_crowd(world, config);
  built.relay_coverage = draws.relay_coverage;
  for (std::size_t i = 0; i < config.phones; ++i) {
    const bool is_relay = draws.is_relay[i];
    core::PhoneConfig pc;
    pc.mobility = make_mobility(config, i, draws.positions[i],
                                config.mobile && !is_relay,
                                draws.mobility_key);
    core::Phone& phone = world.add_phone(std::move(pc));
    if (is_relay) {
      core::RelayAgent::Params params;
      params.own_app = config.app;
      params.scheduler.capacity = config.relay_capacity;
      params.scheduler.max_own_delay = config.app.heartbeat_period;
      core::RelayAgent& relay = world.add_relay(phone, params);
      world.register_session(phone, 3 * config.app.heartbeat_period);
      // First beats are timers of the phone — home them on its kernel.
      sim::ShardGuard guard(world.sim(),
                            world.nodes().shard_of(phone.id()));
      relay.start(seconds(to_seconds(config.app.heartbeat_period) *
                          (0.1 + config.stagger_fraction * static_cast<double>(i) /
                                     static_cast<double>(config.phones))));
    } else {
      core::UeAgent::Params params;
      params.app = config.app;
      params.match.strategy = config.match_strategy;
      params.match.max_distance = Meters{config.match_max_distance_m};
      params.feedback_timeout =
          config.app.heartbeat_period + seconds(30);
      if (config.reassess_interval_s > 0.0) {
        params.reassess_interval = seconds(config.reassess_interval_s);
      }
      core::UeAgent& ue = world.add_ue(phone, params);
      world.register_session(phone, 3 * config.app.heartbeat_period);
      sim::ShardGuard guard(world.sim(),
                            world.nodes().shard_of(phone.id()));
      ue.start(seconds(to_seconds(config.app.heartbeat_period) *
                       (0.1 + config.stagger_fraction * static_cast<double>(i) /
                                  static_cast<double>(config.phones))));
    }
  }

  return built;
}

CrowdMetrics collect_d2d_crowd(CrowdWorld& built,
                               const sim::RunStats& stats) {
  Scenario& world = *built.world;
  CrowdMetrics metrics;
  metrics.relays = world.relays().size();
  metrics.relay_coverage = built.relay_coverage;
  for (auto& relay : world.relays()) {
    metrics.heartbeats_emitted += relay->stats().own_heartbeats;
    metrics.forwarded_via_d2d += relay->stats().forwarded_received;
    metrics.relay_radio_uah += relay->phone().radio_charge().value;
  }
  for (auto& ue : world.ues()) {
    metrics.heartbeats_emitted += ue->stats().heartbeats;
    metrics.fallbacks += ue->stats().fallback_cellular;
    metrics.link_losses += ue->stats().link_losses;
    metrics.ue_radio_uah += ue->phone().radio_charge().value;
  }
  collect_common(world, stats, metrics);
  return metrics;
}

CrowdMetrics run_d2d_crowd(const CrowdConfig& config) {
  CrowdWorld built = build_d2d_crowd(config);
  const sim::RunStats stats = run_crowd_world(*built.world, config);
  return collect_d2d_crowd(built, stats);
}

CrowdWorld build_original_crowd(const CrowdConfig& config) {
  CrowdWorld built;
  built.world = std::make_unique<Scenario>(
      world_params(config, cell_grid_sites(config)));
  Scenario& world = *built.world;
  const CrowdDraws draws = draw_crowd(world, config);
  for (std::size_t i = 0; i < config.phones; ++i) {
    core::PhoneConfig pc;
    pc.mobility = make_mobility(config, i, draws.positions[i], config.mobile,
                                draws.mobility_key);
    core::Phone& phone = world.add_phone(std::move(pc));
    core::OriginalAgent& agent = world.add_original(phone, config.app);
    world.register_session(phone, 3 * config.app.heartbeat_period);
    sim::ShardGuard guard(world.sim(),
                          world.nodes().shard_of(phone.id()));
    agent.start(seconds(to_seconds(config.app.heartbeat_period) *
                        (0.1 + config.stagger_fraction * static_cast<double>(i) /
                                   static_cast<double>(config.phones))));
  }
  return built;
}

CrowdMetrics run_original_crowd(const CrowdConfig& config) {
  CrowdWorld built = build_original_crowd(config);
  Scenario& world = *built.world;
  const sim::RunStats run_stats = run_crowd_world(world, config);

  CrowdMetrics metrics;
  metrics.relays = 0;
  for (auto& agent : world.originals()) {
    metrics.heartbeats_emitted += agent->heartbeats_sent();
  }
  collect_common(world, run_stats, metrics);
  return metrics;
}

}  // namespace d2dhb::scenario

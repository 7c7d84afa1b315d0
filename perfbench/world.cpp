#include "world.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <iomanip>
#include <ostream>
#include <stdexcept>
#include <utility>

#include "core/operator_selection.hpp"
#include "mobility/mobility.hpp"

namespace perfbench {

namespace sc = d2dhb::scenario;
using d2dhb::NodeId;
using d2dhb::Rng;

namespace {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Workload shapes. Why each one is in the benchmark is recorded in
// BENCHMARK.json; the sizes are chosen so that one serial run and one
// 2-thread run each take about a second or more on a 4-core host.

/// The strip-streamed city: 13 strips of 1000 static phones (8 hotspots
/// of ~125 phones each, the default city's hotspot population) and 4
/// cells. 300 s covers the staggered first beats, so every strip is
/// active by the end of the run.
sc::CityConfig city_static(std::uint64_t seed) {
  sc::CityConfig config;
  config.phones = 13000;
  config.phones_per_strip = 1000;
  config.clusters_per_strip = 8;
  config.phones_per_cell = 3000;
  config.duration_s = 300.0;
  config.seed = seed;
  return config;
}

/// bench/crowd_scale's medium-crowd shape at 10k phones (83 strips),
/// with UEs re-assessing their relay every 60 s.
sc::CrowdConfig crowd_discovery(std::uint64_t seed) {
  constexpr std::size_t kPhones = 10000;
  sc::CrowdConfig config;
  config.phones = kPhones;
  config.relay_fraction = 0.2;
  config.area_m = 50.0 + static_cast<double>(kPhones);
  config.clusters = 1 + kPhones / 24;
  config.cluster_stddev_m = 7.0;
  config.reassess_interval_s = 60.0;
  config.duration_s = 300.0;
  config.seed = seed;
  return config;
}

// run_d2d_crowd's private helper, replayed (scenario/src/crowd.cpp).

sc::Scenario::Params crowd_world_params(const sc::CrowdConfig& config) {
  sc::Scenario::Params params;
  params.seed = config.seed;
  params.medium.grid_cell_m = config.grid_cell_m;
  params.medium.legacy_scan = config.legacy_scan;
  const auto strips = std::clamp<std::size_t>(
      static_cast<std::size_t>(config.area_m / 120.0), 1,
      d2dhb::sim::EventKernel::kMaxShards);
  params.shard_plan = d2dhb::world::ShardPlan{strips, 0.0, config.area_m};
  params.agent_memory = config.heap_agents ? d2dhb::Arena::Mode::heap
                                           : d2dhb::Arena::Mode::pooled;
  return params;
}

}  // namespace

std::size_t SpanLog::begin(const char* name) {
  if (!enabled_) return kNoParent;
  const std::size_t parent = open_.empty() ? kNoParent : open_.back();
  spans_.push_back(Span{name, parent, now_ns(), 0});
  open_.push_back(spans_.size() - 1);
  return spans_.size() - 1;
}

void SpanLog::end(std::size_t span) {
  if (!enabled_) return;
  spans_[span].end_ns = now_ns();
  open_.pop_back();
}

double SpanLog::total_s(std::string_view name) const {
  std::uint64_t ns = 0;
  for (const Span& s : spans_) {
    if (name == s.name) ns += s.end_ns - s.begin_ns;
  }
  return static_cast<double>(ns) * 1e-9;
}

void SpanLog::write_chrome_trace(std::ostream& os) const {
  const std::uint64_t origin = spans_.empty() ? 0 : spans_.front().begin_ns;
  os << std::fixed << std::setprecision(3) << "{\"traceEvents\": [\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    os << (i == 0 ? "" : ",\n") << "{\"name\": \"" << s.name
       << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": "
       << static_cast<double>(s.begin_ns - origin) * 1e-3
       << ", \"dur\": " << static_cast<double>(s.end_ns - s.begin_ns) * 1e-3
       << ", \"args\": {\"id\": " << i << ", \"parent\": ";
    if (s.parent == kNoParent) {
      os << "null";
    } else {
      os << s.parent;
    }
    os << "}}";
  }
  os << "\n]}\n";
}

std::size_t Workload::phones() const {
  return kind == Kind::city ? city.phones : crowd.phones;
}

double Workload::duration_s() const {
  return kind == Kind::city ? city.duration_s : crowd.duration_s;
}

Workload make_workload(std::string_view name, std::uint64_t seed) {
  Workload w;
  w.name = std::string(name);
  if (name == "city_static") {
    w.kind = Kind::city;
    w.city = city_static(seed);
  } else if (name == "crowd_discovery") {
    w.crowd = crowd_discovery(seed);
  } else {
    throw std::invalid_argument("unknown workload: " + w.name);
  }
  return w;
}

BuiltWorld build_crowd(const sc::CrowdConfig& config, SpanLog& spans) {
  if (config.cell_grid > 1 || config.operator_policy.has_value() ||
      config.mobile) {
    throw std::invalid_argument(
        "build_crowd replays the static, single-cell, first-N-relay layout "
        "only");
  }
  BuiltWorld built;
  std::vector<d2dhb::mobility::Vec2> positions;
  const auto relay_count = static_cast<std::size_t>(
      std::round(config.relay_fraction * static_cast<double>(config.phones)));
  {
    Span span(spans, "scenario.layout");
    built.world = std::make_unique<sc::Scenario>(crowd_world_params(config));
    Rng layout_rng = built.world->fork_rng();
    positions = d2dhb::mobility::clustered_crowd(
        config.phones, config.clusters, {0.0, 0.0},
        {config.area_m, config.area_m}, config.cluster_stddev_m, layout_rng);
    std::vector<d2dhb::core::RelayCandidate> candidates;
    candidates.reserve(config.phones);
    for (std::size_t i = 0; i < config.phones; ++i) {
      candidates.push_back(
          d2dhb::core::RelayCandidate{NodeId{i + 1}, positions[i], 1.0, true});
    }
    std::vector<NodeId> relays;
    for (std::size_t i = 0; i < relay_count; ++i) {
      relays.push_back(candidates[i].node);
    }
    built.relay_coverage = d2dhb::core::coverage_of(
        candidates, relays, d2dhb::Meters{config.match_max_distance_m});
  }
  sc::Scenario& world = *built.world;

  const auto period_s = d2dhb::to_seconds(config.app.heartbeat_period);
  for (std::size_t i = 0; i < config.phones; ++i) {
    const bool is_relay = i < relay_count;
    d2dhb::core::Phone* phone = nullptr;
    {
      Span span(spans, "scenario.add_phone");
      d2dhb::core::PhoneConfig pc;
      pc.mobility =
          std::make_unique<d2dhb::mobility::StaticMobility>(positions[i]);
      // run_d2d_crowd forks an rng for every phone's mobility model,
      // static or not; forking advances the world's rng state.
      static_cast<void>(world.fork_rng());
      phone = &world.add_phone(std::move(pc));
    }
    const d2dhb::Duration offset = d2dhb::seconds(
        period_s * (0.1 + config.stagger_fraction * static_cast<double>(i) /
                              static_cast<double>(config.phones)));
    if (is_relay) {
      d2dhb::core::RelayAgent* relay = nullptr;
      {
        Span span(spans, "scenario.add_agent");
        d2dhb::core::RelayAgent::Params params;
        params.own_app = config.app;
        params.scheduler.capacity = config.relay_capacity;
        params.scheduler.max_own_delay = config.app.heartbeat_period;
        relay = &world.add_relay(*phone, params);
        world.register_session(*phone, 3 * config.app.heartbeat_period);
      }
      Span span(spans, "scenario.start");
      d2dhb::sim::ShardGuard guard(world.sim(),
                                   world.nodes().shard_of(phone->id()));
      relay->start(offset);
    } else {
      d2dhb::core::UeAgent* ue = nullptr;
      {
        Span span(spans, "scenario.add_agent");
        d2dhb::core::UeAgent::Params params;
        params.app = config.app;
        params.match.strategy = config.match_strategy;
        params.match.max_distance = d2dhb::Meters{config.match_max_distance_m};
        params.feedback_timeout =
            config.app.heartbeat_period + d2dhb::seconds(30);
        if (config.reassess_interval_s > 0.0) {
          params.reassess_interval = d2dhb::seconds(config.reassess_interval_s);
        }
        ue = &world.add_ue(*phone, params);
        world.register_session(*phone, 3 * config.app.heartbeat_period);
      }
      Span span(spans, "scenario.start");
      d2dhb::sim::ShardGuard guard(world.sim(),
                                   world.nodes().shard_of(phone->id()));
      ue->start(offset);
    }
  }
  return built;
}

BuiltWorld build_world(const Workload& workload, SpanLog& spans) {
  if (workload.kind == Kind::crowd) return build_crowd(workload.crowd, spans);
  Span span(spans, "scenario.build_city");
  BuiltWorld built;
  built.world = sc::build_city(workload.city);
  return built;
}

d2dhb::sim::RunOptions run_options(std::size_t threads,
                                   d2dhb::sim::Profiler* profiler) {
  d2dhb::sim::RunOptions options;
  options.threads = threads;
  options.profile = profiler != nullptr;
  options.profiler = profiler;
  return options;
}

Outcome collect_outcome(sc::Scenario& world,
                        const d2dhb::sim::RunStats& stats) {
  Outcome out;
  out.sim_events = world.sim().executed_events();
  out.total_l3 = world.total_l3();
  out.heartbeats_delivered = world.server().totals().delivered;
  for (const auto* relay : world.relays()) {
    out.forwarded_via_d2d += relay->stats().forwarded_received;
  }
  for (const auto* ue : world.ues()) {
    out.fallbacks += ue->stats().fallback_cellular;
  }
  out.shard_events_executed = stats.shard_events_executed;
  return out;
}

sc::CrowdMetrics crowd_metrics(sc::Scenario& world, const BuiltWorld& built,
                               const d2dhb::sim::RunStats& stats) {
  // Field for field what run_d2d_crowd collects (scenario/src/crowd.cpp).
  sc::CrowdMetrics m;
  m.relays = world.relays().size();
  m.relay_coverage = built.relay_coverage;
  for (auto* relay : world.relays()) {
    m.heartbeats_emitted += relay->stats().own_heartbeats;
    m.forwarded_via_d2d += relay->stats().forwarded_received;
    m.relay_radio_uah += relay->phone().radio_charge().value;
  }
  for (auto* ue : world.ues()) {
    m.heartbeats_emitted += ue->stats().heartbeats;
    m.fallbacks += ue->stats().fallback_cellular;
    m.link_losses += ue->stats().link_losses;
    m.ue_radio_uah += ue->phone().radio_charge().value;
  }
  m.phones = world.phones().size();
  m.total_l3 = world.total_l3();
  m.peak_l3_per_10s = world.worst_cell_peak(d2dhb::seconds(10));
  for (std::size_t c = 0; c < world.cell_count(); ++c) {
    m.l3_per_cell.push_back(world.bs(c).signaling().total());
  }
  for (auto* phone : world.phones()) {
    m.total_radio_uah += phone->radio_charge().value;
  }
  if (!world.phones().empty()) {
    m.mean_radio_uah_per_phone =
        m.total_radio_uah / static_cast<double>(world.phones().size());
  }
  m.server = world.server().totals();
  m.heartbeats_delivered = m.server.delivered;
  m.credits_issued = world.ledger().total_issued();
  m.sim_events = world.sim().executed_events();
  m.cross_shard_posted = stats.cross_posted;
  m.cross_shard_delivered = stats.cross_delivered;
  m.cross_min_slack_us = world.sim().cross_min_slack_us();
  m.shard_events_executed = stats.shard_events_executed;
  m.shard_mailbox_delivered = stats.shard_mailbox_delivered;
  const d2dhb::Arena::Stats arena = world.arena_stats();
  m.arena_bytes_allocated = arena.bytes_allocated;
  m.arena_bytes_reserved = arena.bytes_reserved;
  m.arena_objects = arena.objects;
  m.metrics = world.metrics_snapshot();
  return m;
}

}  // namespace perfbench

#include "scenario/city.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/memory.hpp"
#include "scenario/scenario.hpp"
#include "sim/engine.hpp"

namespace d2dhb::scenario {

namespace {

constexpr double kStripWidthM = 120.0;
constexpr double kStripHeightM = 960.0;

/// One strip per phones_per_strip phones, capped by the kernel-count
/// limit — the cap widens the per-strip population, never drops phones.
std::size_t strip_count(const CityConfig& config) {
  const std::size_t per_strip = std::max<std::size_t>(
      1, config.phones_per_strip);
  const std::size_t strips = (config.phones + per_strip - 1) / per_strip;
  return std::clamp<std::size_t>(strips, 1, sim::EventKernel::kMaxShards);
}

/// Base-station row along the strips' long (x) axis, one site per
/// phones_per_cell phones, centered vertically.
std::vector<mobility::Vec2> city_sites(const CityConfig& config,
                                       double width) {
  const std::size_t cells = std::max<std::size_t>(
      1, config.phones / std::max<std::size_t>(1, config.phones_per_cell));
  std::vector<mobility::Vec2> sites;
  sites.reserve(cells);
  const double step = width / static_cast<double>(cells);
  for (std::size_t c = 0; c < cells; ++c) {
    sites.push_back({(0.5 + static_cast<double>(c)) * step,
                     kStripHeightM / 2.0});
  }
  return sites;
}

}  // namespace

std::unique_ptr<Scenario> build_city(const CityConfig& config) {
  const std::size_t strips = strip_count(config);
  const double width = kStripWidthM * static_cast<double>(strips);

  Scenario::Params params;
  params.seed = config.seed;
  params.cell_sites = city_sites(config, width);
  params.shard_plan = world::ShardPlan{strips, 0.0, width};
  params.agent_memory =
      config.heap_agents ? Arena::Mode::heap : Arena::Mode::pooled;
  auto world = std::make_unique<Scenario>(std::move(params));

  const std::size_t clusters = std::max<std::size_t>(
      1, config.clusters_per_strip);
  // Every k-th member of a cluster relays (strip-local index i maps to
  // cluster i % clusters, so i / clusters is the member's rank within
  // its cluster) — a deterministic even spread that puts relays in
  // every hotspot.
  const std::size_t relay_every =
      config.relay_fraction > 0.0
          ? std::max<std::size_t>(
                1, static_cast<std::size_t>(
                       std::llround(1.0 / config.relay_fraction)))
          : 0;
  const std::size_t per_strip = (config.phones + strips - 1) / strips;
  const double period_s = to_seconds(config.app.heartbeat_period);

  std::size_t built = 0;
  for (std::size_t s = 0; s < strips && built < config.phones; ++s) {
    const std::size_t count =
        std::min(per_strip, config.phones - built);
    const double x0 = kStripWidthM * static_cast<double>(s);
    const double x1 = x0 + kStripWidthM;
    // This strip's private layout stream: hotspot centers kept a few
    // deviations off the edges, phones scattered normally around them
    // and clamped back into the strip.
    Rng layout = world->fork_rng();
    const double margin =
        std::min(3.0 * config.cluster_stddev_m, kStripWidthM / 4.0);
    std::vector<mobility::Vec2> centers;
    centers.reserve(clusters);
    for (std::size_t c = 0; c < clusters; ++c) {
      centers.push_back(
          {layout.uniform(x0 + margin, x1 - margin),
           layout.uniform(margin,
                          std::max(margin + 1.0, kStripHeightM - margin))});
    }
    for (std::size_t i = 0; i < count; ++i, ++built) {
      const mobility::Vec2& center = centers[i % clusters];
      mobility::Vec2 pos{
          layout.normal(center.x, config.cluster_stddev_m),
          layout.normal(center.y, config.cluster_stddev_m)};
      pos.x = std::clamp(pos.x, x0, x1 - 1e-6);
      pos.y = std::clamp(pos.y, 0.0, kStripHeightM);

      core::PhoneConfig pc;
      pc.mobility_ref =
          &world->emplace_mobility<mobility::StaticMobility>(pos, pos);
      core::Phone& phone = world->add_phone(std::move(pc));

      const Duration offset = seconds(
          period_s *
          (0.1 + config.stagger_fraction * static_cast<double>(built) /
                     static_cast<double>(config.phones)));
      const bool is_relay =
          relay_every > 0 && (i / clusters) % relay_every == 0;
      if (is_relay) {
        core::RelayAgent::Params rp;
        rp.own_app = config.app;
        rp.scheduler.capacity = config.relay_capacity;
        rp.scheduler.max_own_delay = config.app.heartbeat_period;
        core::RelayAgent& relay = world->add_relay(phone, rp);
        world->register_session(phone, 3 * config.app.heartbeat_period);
        sim::ShardGuard guard(world->sim(),
                              world->nodes().shard_of(phone.id()));
        relay.start(offset);
      } else {
        core::UeAgent::Params up;
        up.app = config.app;
        up.match.max_distance = Meters{config.match_max_distance_m};
        up.feedback_timeout = config.app.heartbeat_period + seconds(30);
        core::UeAgent& ue = world->add_ue(phone, up);
        world->register_session(phone, 3 * config.app.heartbeat_period);
        sim::ShardGuard guard(world->sim(),
                              world->nodes().shard_of(phone.id()));
        ue.start(offset);
      }
    }
  }
  return world;
}

CityMetrics run_city(Scenario& world, const CityConfig& config) {
  const TimePoint end = TimePoint{} + seconds(config.duration_s);
  sim::RunOptions options;
  options.threads = config.threads;
  options.profile = config.profile;
  options.profiler = config.profiler;
  const sim::RunStats run_stats = sim::run(world.sim(), end, options);

  CityMetrics m;
  m.shard_events_executed = run_stats.shard_events_executed;
  m.profile = run_stats.profile;
  m.phones = world.phones().size();
  m.relays = world.relays().size();
  m.cells = world.cell_count();
  m.strips = world.sim().shard_count();
  m.total_l3 = world.total_l3();
  m.peak_l3_per_10s = world.worst_cell_peak(seconds(10));
  m.heartbeats_delivered = world.server().totals().delivered;
  for (const auto* relay : world.relays()) {
    m.forwarded_via_d2d += relay->stats().forwarded_received;
  }
  for (const auto* ue : world.ues()) {
    m.fallbacks += ue->stats().fallback_cellular;
  }
  m.sim_events = world.sim().executed_events();
  const Arena::Stats arena = world.arena_stats();
  m.arena_bytes_allocated = arena.bytes_allocated;
  m.arena_bytes_reserved = arena.bytes_reserved;
  m.arena_objects = arena.objects;
  m.peak_rss_bytes = peak_rss_bytes();
  return m;
}

}  // namespace d2dhb::scenario

// City-scale crowd — the operator-scale setting the paper motivates
// (millions of always-on phones per city hammering the control plane).
// Unlike the crowd preset, worlds here are built strip-by-strip: each
// shard strip forks its own layout stream, scatters its own clusters,
// and hands every phone, mobility model, and agent straight to that
// strip's arena — construction never materializes a global positions
// vector or any other O(phones) intermediate outside the world itself.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "apps/app_profile.hpp"
#include "sim/profiler.hpp"

namespace d2dhb::scenario {

class Scenario;

struct CityConfig {
  std::size_t phones{100000};
  /// Every k-th phone of a cluster volunteers as a relay, with
  /// k = round(1/fraction) — deterministic even spread, so each
  /// cluster has relays in D2D range (0 = no relays at all).
  double relay_fraction{0.1};
  /// Strip geometry: the area is one 120 m x 960 m vertical strip per
  /// this many phones (capped at the kernel-count limit; the last strip
  /// takes the remainder).
  std::size_t phones_per_strip{4000};
  /// Crowd hotspots per strip; phones scatter normally around them.
  std::size_t clusters_per_strip{32};
  double cluster_stddev_m{8.0};
  /// Multicell: one base station per this many phones, laid out as a
  /// row of sites along the x axis (the strips' long dimension).
  std::size_t phones_per_cell{5000};
  double duration_s{600.0};
  apps::AppProfile app{apps::standard_app()};
  std::size_t relay_capacity{7};
  double match_max_distance_m{12.0};
  /// Fraction of the heartbeat period the first beats spread over.
  double stagger_fraction{0.8};
  /// Engine worker threads (sim::RunOptions::threads; 1 = serial).
  std::size_t threads{1};
  /// Ablation: per-object heap allocation instead of the pooled
  /// per-strip arenas (byte-identical results, different layout).
  bool heap_agents{false};
  /// Record engine runtime spans (sim::RunOptions::profile): fills
  /// CityMetrics::profile. Observational only — results are
  /// byte-identical with it on or off.
  bool profile{false};
  /// Caller-owned span recorder (implies `profile`); keeps the merged
  /// spans for Chrome-trace export after the run.
  sim::Profiler* profiler{nullptr};
  std::uint64_t seed{11};
};

/// Aggregate counters only. Deliberately NOT a registry snapshot: at
/// city scale the per-node series make a snapshot an O(phones) string
/// map — the exact global intermediate this preset exists to avoid.
struct CityMetrics {
  std::uint64_t phones{0};
  std::uint64_t relays{0};
  std::uint64_t cells{0};
  std::uint64_t strips{0};
  std::uint64_t total_l3{0};
  std::uint64_t peak_l3_per_10s{0};
  std::uint64_t heartbeats_delivered{0};
  std::uint64_t forwarded_via_d2d{0};
  std::uint64_t fallbacks{0};
  std::uint64_t sim_events{0};
  /// Strip-arena footprint (common/arena.hpp Stats, summed).
  std::uint64_t arena_bytes_allocated{0};
  std::uint64_t arena_bytes_reserved{0};
  std::uint64_t arena_objects{0};
  /// Process peak RSS (getrusage) after the run, in bytes.
  std::uint64_t peak_rss_bytes{0};
  /// Per-shard event counts (sim::RunStats). O(strips), not
  /// O(phones) — safe at city scale, deterministic across threads.
  std::vector<std::uint64_t> shard_events_executed;
  /// Runtime profile summary (enabled=false unless CityConfig asked).
  sim::ProfileSummary profile;
};

/// Builds the streamed city world (phones placed, agents started,
/// nothing run yet). Split from run_city so benches can time build
/// and run separately.
std::unique_ptr<Scenario> build_city(const CityConfig& config);

/// Runs a built city for config.duration_s and collects aggregates.
CityMetrics run_city(Scenario& world, const CityConfig& config);

}  // namespace d2dhb::scenario

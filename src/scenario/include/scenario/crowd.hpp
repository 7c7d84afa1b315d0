// High-density crowd scenarios — the deployment setting that motivates
// the paper (Section II-D: "the signaling storm problem usually occurs
// in the region with high-density crowd"). Many phones, a fraction of
// them volunteering as relays, real heartbeat periods, optional
// mobility-driven link churn.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "apps/app_profile.hpp"
#include "core/detector.hpp"
#include "core/operator_selection.hpp"
#include "metrics/registry.hpp"
#include "net/im_server.hpp"
#include "scenario/scenario.hpp"
#include "sim/engine.hpp"

namespace d2dhb::scenario {

struct CrowdConfig {
  std::size_t phones{60};
  double relay_fraction{0.2};
  double area_m{120.0};
  std::size_t clusters{4};
  double cluster_stddev_m{8.0};
  /// When true, non-relay phones move (random waypoint) and D2D links
  /// churn; relays stay put (kiosk-like volunteers).
  bool mobile{false};
  double duration_s{3600.0};
  apps::AppProfile app{apps::standard_app()};
  std::size_t relay_capacity{7};
  /// Relay-matching strategy for UEs (ablation: nearest vs random).
  core::MatchStrategy match_strategy{core::MatchStrategy::nearest};
  double match_max_distance_m{12.0};
  /// When set, the operator picks which phones relay (Section I) using
  /// this policy with `relay_fraction`·phones as the budget; otherwise
  /// the first N phones relay (the legacy layout).
  std::optional<core::SelectionPolicy> operator_policy{};
  /// Cellular cells covering the area, laid out as an n×n-ish grid
  /// (1 = the single-BS setup). Control-channel load is per cell.
  std::size_t cell_grid{1};
  /// Fraction of the heartbeat period over which phones' first beats are
  /// spread. Small values synchronize the crowd — the "signaling storm"
  /// worst case where every phone hits the control channel at once.
  double stagger_fraction{0.8};
  /// World-index cell size for the D2D medium in meters (0 = the D2D
  /// range). Exposed for the grid ablation (`d2dhb_sim crowd
  /// --grid-cell`).
  double grid_cell_m{0.0};
  /// Reference path: answer discovery scans with the legacy full-table
  /// scan instead of the listening-only discovery index (seeded runs
  /// are bit-identical either way; only the speed differs).
  bool legacy_scan{false};
  /// Connected UEs re-scan every this many seconds and switch to a
  /// markedly closer relay (core::UeAgent::Params::reassess_interval).
  /// Zero disables re-assessment. Periodic re-scans make discovery the
  /// dominant event class at scale — the scaling benches use this.
  double reassess_interval_s{0.0};
  /// Worker threads driving the kernels (1 = the caller's thread
  /// alone; capped by the world's strip count). The partition itself
  /// is geometric — one vertical strip per 120 m of area width, each
  /// phone homed to the strip owning its initial position — so this
  /// never changes results; the shard-equivalence gate holds the
  /// executor to that.
  std::size_t threads{1};
  /// Ablation: one heap allocation per agent object instead of the
  /// pooled per-strip arenas (Scenario::Params::agent_memory). Seeded
  /// results are byte-identical either way; only the memory layout and
  /// footprint differ — the arena-vs-heap equivalence gate holds the
  /// arena layer to that.
  bool heap_agents{false};
  /// Record engine runtime spans (sim::RunOptions::profile): fills
  /// CrowdMetrics::profile and the registry's runtime/ namespace.
  /// Purely observational — deterministic results are byte-identical
  /// with it on or off.
  bool profile{false};
  /// Caller-owned span recorder (implies `profile`); pass one to keep
  /// the merged spans for Chrome-trace export after the run.
  sim::Profiler* profiler{nullptr};
  std::uint64_t seed{7};
};

struct CrowdMetrics {
  std::uint64_t phones{0};
  std::uint64_t relays{0};
  std::uint64_t total_l3{0};
  /// Worst per-cell sliding-window peak — the storm metric.
  std::uint64_t peak_l3_per_10s{0};
  std::vector<std::uint64_t> l3_per_cell;
  double total_radio_uah{0.0};
  double mean_radio_uah_per_phone{0.0};
  double relay_radio_uah{0.0};  ///< Sum over relay phones.
  double ue_radio_uah{0.0};     ///< Sum over UE phones.
  std::uint64_t heartbeats_emitted{0};
  std::uint64_t heartbeats_delivered{0};
  std::uint64_t forwarded_via_d2d{0};
  std::uint64_t fallbacks{0};
  std::uint64_t link_losses{0};
  net::ImServer::Totals server;
  double credits_issued{0.0};
  /// Fraction of UEs within D2D matching range of a relay at layout
  /// time (grid-backed coverage accounting; computed for every layout,
  /// operator-selected or first-N).
  double relay_coverage{0.0};
  /// Simulator events executed by this run: the deterministic event
  /// budget that tests pin (a count, not a speed).
  std::uint64_t sim_events{0};
  /// Cross-kernel traffic: always 0, 0 and INT64_MAX (and
  /// shard_mailbox_delivered all zeros), because no event crosses
  /// kernels (sim::RunStats). Kept only for the repo benchmark's
  /// reader; drop them with the next benchmark change.
  std::uint64_t cross_shard_posted{0};
  std::uint64_t cross_shard_delivered{0};
  std::int64_t cross_min_slack_us{INT64_MAX};
  /// Agent-memory footprint: bytes handed out by the strip arenas,
  /// bytes they reserved from the OS, and the object count (plain
  /// counters, NOT registry metrics — they differ between the pooled
  /// and heap layouts, which must stay byte-identical in the registry).
  std::uint64_t arena_bytes_allocated{0};
  std::uint64_t arena_bytes_reserved{0};
  std::uint64_t arena_objects{0};
  /// Process peak RSS (getrusage) sampled after the run, in bytes.
  /// Monotone over the process lifetime — meaningful for the FIRST or
  /// LARGEST world a process builds, not per-arm in a shrinking sweep.
  std::uint64_t peak_rss_bytes{0};
  /// Per-shard event counts (sim::RunStats) — deterministic,
  /// byte-identical across thread counts, so load imbalance is visible
  /// with profiling off.
  std::vector<std::uint64_t> shard_events_executed;
  std::vector<std::uint64_t> shard_mailbox_delivered;
  /// Runtime profile summary (host wall-clock; enabled=false unless
  /// CrowdConfig::profile/profiler asked for it).
  sim::ProfileSummary profile;
  /// Full registry snapshot taken at the end of the run (every counter,
  /// gauge, and histogram the substrates registered). A profiled run
  /// additionally carries runtime/ entries here — the deterministic
  /// exporters drop them (metrics/export.hpp partition rule).
  metrics::Snapshot metrics;
};

CrowdMetrics run_d2d_crowd(const CrowdConfig& config);
CrowdMetrics run_original_crowd(const CrowdConfig& config);

/// A crowd world, built and started but not yet run: run_d2d_crowd (or
/// run_original_crowd) split in two, so a caller can drive the world
/// itself (the executor oracle steps it event by event).
struct CrowdWorld {
  std::unique_ptr<Scenario> world;
  double relay_coverage{0.0};
};
CrowdWorld build_d2d_crowd(const CrowdConfig& config);
/// The original-system arm's world. It makes the D2D arm's draws in the
/// same order, so phone i walks the same trajectory in both arms of a
/// seed; its relay_coverage stays 0, as nobody relays.
CrowdWorld build_original_crowd(const CrowdConfig& config);
/// Drives a built world to the end of the run (run_d2d_crowd's middle).
sim::RunStats run_crowd_world(Scenario& world, const CrowdConfig& config);
/// The metrics run_d2d_crowd reports, for a built world driven to the
/// end of the run; `stats` is the last sim::run's RunStats.
CrowdMetrics collect_d2d_crowd(CrowdWorld& built, const sim::RunStats& stats);

}  // namespace d2dhb::scenario

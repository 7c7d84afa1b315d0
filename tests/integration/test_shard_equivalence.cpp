// Seeded-run equivalence across executors: the same crowd, run inline
// and on 2, 3 and 4 worker threads — and stepped event by event in
// global (when, seq) order — must produce byte-identical metrics
// exports. Kernels are independent (no event crosses a kernel), and
// each kernel executes its own events in (when, seq) order however it
// is driven, so the result cannot depend on the executor.
//
// The crowd spans a 480 m area, which the geometric partition cuts
// into four 120 m strips (one kernel each); every arm below therefore
// runs the SAME four-kernel world and only the executor varies.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>

#include "metrics/export.hpp"
#include "scenario/crowd.hpp"

namespace d2dhb::scenario {
namespace {

std::string metrics_json(const CrowdMetrics& m) {
  std::ostringstream os;
  metrics::export_json(m.metrics, os);
  return os.str();
}

// Four geometric strips (area 480 m / 120 m per strip), eight phone
// clusters spread across them, so every kernel has phones to run.
CrowdConfig striped_crowd(std::uint64_t seed) {
  CrowdConfig config;
  config.phones = 48;
  config.relay_fraction = 0.25;
  config.area_m = 480.0;
  config.clusters = 8;
  config.duration_s = 900.0;
  config.seed = seed;
  return config;
}

void expect_executor_invariance(const CrowdConfig& base, const char* what) {
  CrowdConfig serial = base;
  serial.threads = 1;
  const CrowdMetrics reference = run_d2d_crowd(serial);
  const std::string reference_json = metrics_json(reference);

  // Three threads own the four kernels unevenly (kernels 0 and 3 share
  // worker 0).
  for (const std::size_t threads : {2u, 3u, 4u}) {
    CrowdConfig arm = base;
    arm.threads = threads;
    const CrowdMetrics parallel = run_d2d_crowd(arm);
    const std::string label =
        std::string(what) + " @ " + std::to_string(threads) + " threads";
    EXPECT_EQ(parallel.total_l3, reference.total_l3) << label;
    EXPECT_EQ(parallel.sim_events, reference.sim_events) << label;
    EXPECT_EQ(parallel.heartbeats_delivered, reference.heartbeats_delivered)
        << label;
    EXPECT_EQ(parallel.fallbacks, reference.fallbacks) << label;
    EXPECT_EQ(parallel.link_losses, reference.link_losses) << label;
    EXPECT_DOUBLE_EQ(parallel.total_radio_uah, reference.total_radio_uah)
        << label;
    // The full registry export — every counter, gauge, and histogram
    // the substrates registered — must serialize byte for byte the
    // same.
    EXPECT_EQ(metrics_json(parallel), reference_json) << label;
  }
}

TEST(ShardEquivalence, StaticCrowdIsByteIdentical) {
  expect_executor_invariance(striped_crowd(4242), "static crowd");
}

TEST(ShardEquivalence, MobileCrowdIsByteIdentical) {
  CrowdConfig config = striped_crowd(977);
  config.mobile = true;
  config.reassess_interval_s = 45.0;
  expect_executor_invariance(config, "mobile crowd");
}

TEST(ShardEquivalence, MulticellCrowdIsByteIdentical) {
  CrowdConfig config = striped_crowd(1313);
  config.cell_grid = 4;
  config.operator_policy = core::SelectionPolicy::coverage_greedy;
  expect_executor_invariance(config, "multicell crowd");
}

TEST(ShardEquivalence, OriginalSchemeIsByteIdentical) {
  CrowdConfig serial = striped_crowd(55);
  serial.threads = 1;
  CrowdConfig parallel = striped_crowd(55);
  parallel.threads = 4;
  const CrowdMetrics a = run_original_crowd(serial);
  const CrowdMetrics b = run_original_crowd(parallel);
  EXPECT_EQ(a.total_l3, b.total_l3);
  EXPECT_EQ(a.sim_events, b.sim_events);
  EXPECT_EQ(metrics_json(a), metrics_json(b));
}

// Arena-vs-heap: the SAME seeded crowd with per-object heap agent
// allocation (the ablation layout) must byte-match the pooled-arena
// reference — serially and at 2/4 worker threads, full registry
// export included. Memory layout must never leak into results.
TEST(ShardEquivalence, HeapAgentLayoutIsByteIdentical) {
  CrowdConfig pooled = striped_crowd(4242);
  pooled.threads = 1;
  const CrowdMetrics reference = run_d2d_crowd(pooled);
  const std::string reference_json = metrics_json(reference);

  for (const std::size_t threads : {1u, 2u, 4u}) {
    CrowdConfig heap = striped_crowd(4242);
    heap.heap_agents = true;
    heap.threads = threads;
    const CrowdMetrics arm = run_d2d_crowd(heap);
    const std::string label =
        "heap agents @ " + std::to_string(threads) + " threads";
    EXPECT_EQ(arm.total_l3, reference.total_l3) << label;
    EXPECT_EQ(arm.sim_events, reference.sim_events) << label;
    EXPECT_DOUBLE_EQ(arm.total_radio_uah, reference.total_radio_uah)
        << label;
    EXPECT_EQ(metrics_json(arm), reference_json) << label;
    // The layouts really differ: pooled reserves block-granular arena
    // memory, heap mode reserves exactly what it allocates.
    EXPECT_EQ(arm.arena_bytes_allocated, arm.arena_bytes_reserved) << label;
    EXPECT_GT(reference.arena_bytes_reserved,
              reference.arena_bytes_allocated)
        << "pooled reference";
  }
}

// The oracle: per-kernel execution equals global (when, seq) order.
// One static multi-strip crowd with D2D forwarding is driven to the
// same end three ways — Simulator::step() (the global merge, one event
// at a time), sim::run inline, and sim::run on 2 threads — and every
// deterministic CrowdMetrics field plus the full registry export must
// match across all three.
/// Builds the crowd and drives it to its end: with `threads` == 0 by
/// Simulator::step(), otherwise by sim::run on that many threads.
CrowdMetrics drive(const CrowdConfig& config, std::size_t threads) {
  CrowdWorld built = build_d2d_crowd(config);
  sim::Simulator& sim = built.world->sim();
  const TimePoint end = TimePoint{} + seconds(config.duration_s);
  sim::RunOptions options;
  if (threads == 0) {
    while (sim.step(end)) {
    }
    // Nothing at or before `end` is left: the run below only closes
    // the clocks out at `end` and collects the per-shard counters.
  } else {
    options.threads = threads;
  }
  const sim::RunStats stats = sim::run(sim, end, options);
  return collect_d2d_crowd(built, stats);
}

TEST(ShardEquivalence, PerKernelRunsEqualTheGlobalMergeOrder) {
  CrowdConfig config;
  config.phones = 160;
  config.relay_fraction = 0.2;
  config.area_m = 480.0;
  config.clusters = 12;
  config.cluster_stddev_m = 7.0;
  config.cell_grid = 2;
  config.duration_s = 900.0;
  config.seed = 31;

  const CrowdMetrics stepped = drive(config, 0);
  ASSERT_EQ(stepped.shard_events_executed.size(), 4u);
  for (const std::uint64_t events : stepped.shard_events_executed) {
    EXPECT_GT(events, 0u);
  }
  EXPECT_GT(stepped.forwarded_via_d2d, 0u);

  for (const std::size_t threads : {1u, 2u}) {
    const CrowdMetrics m = drive(config, threads);
    const std::string label = std::to_string(threads) + " thread(s)";
#define D2DHB_EXPECT_SAME(field) \
  EXPECT_EQ(m.field, stepped.field) << #field << " @ " << label
    D2DHB_EXPECT_SAME(phones);
    D2DHB_EXPECT_SAME(relays);
    D2DHB_EXPECT_SAME(total_l3);
    D2DHB_EXPECT_SAME(peak_l3_per_10s);
    D2DHB_EXPECT_SAME(l3_per_cell);
    D2DHB_EXPECT_SAME(total_radio_uah);
    D2DHB_EXPECT_SAME(mean_radio_uah_per_phone);
    D2DHB_EXPECT_SAME(relay_radio_uah);
    D2DHB_EXPECT_SAME(ue_radio_uah);
    D2DHB_EXPECT_SAME(heartbeats_emitted);
    D2DHB_EXPECT_SAME(heartbeats_delivered);
    D2DHB_EXPECT_SAME(forwarded_via_d2d);
    D2DHB_EXPECT_SAME(fallbacks);
    D2DHB_EXPECT_SAME(link_losses);
    D2DHB_EXPECT_SAME(server.delivered);
    D2DHB_EXPECT_SAME(server.on_time);
    D2DHB_EXPECT_SAME(server.late);
    D2DHB_EXPECT_SAME(server.offline_events);
    D2DHB_EXPECT_SAME(server.total_latency);
    D2DHB_EXPECT_SAME(credits_issued);
    D2DHB_EXPECT_SAME(relay_coverage);
    D2DHB_EXPECT_SAME(sim_events);
    D2DHB_EXPECT_SAME(cross_shard_posted);
    D2DHB_EXPECT_SAME(cross_shard_delivered);
    D2DHB_EXPECT_SAME(cross_min_slack_us);
    D2DHB_EXPECT_SAME(arena_bytes_allocated);
    D2DHB_EXPECT_SAME(arena_bytes_reserved);
    D2DHB_EXPECT_SAME(arena_objects);
    D2DHB_EXPECT_SAME(shard_events_executed);
    D2DHB_EXPECT_SAME(shard_mailbox_delivered);
#undef D2DHB_EXPECT_SAME
    EXPECT_EQ(metrics_json(m), metrics_json(stepped)) << label;
  }
}

}  // namespace
}  // namespace d2dhb::scenario

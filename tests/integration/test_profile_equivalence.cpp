// Profile equivalence: turning the engine profiler on must not perturb
// a single deterministic result. The same seeded crowd runs unprofiled
// (the reference) and profiled — serially and on 4 worker threads —
// and every arm's deterministic metrics export must match byte for
// byte. The profiled runs' wall-clock data lands in the registry under
// runtime/, which export_json deliberately drops; export_runtime_json
// is the one place it comes out.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>

#include "metrics/export.hpp"
#include "scenario/crowd.hpp"
#include "sim/profiler.hpp"

namespace d2dhb::scenario {
namespace {

std::string metrics_json(const CrowdMetrics& m) {
  std::ostringstream os;
  metrics::export_json(m.metrics, os);
  return os.str();
}

std::string runtime_json(const CrowdMetrics& m) {
  std::ostringstream os;
  metrics::export_runtime_json(m.metrics, os);
  return os.str();
}

// The shard-equivalence fixture: 480 m / four geometric strips, border
// clusters forcing cross-kernel traffic.
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

TEST(ProfileEquivalence, ProfiledRunsExportByteIdenticalMetrics) {
  CrowdConfig reference_config = striped_crowd(4242);
  reference_config.threads = 1;
  const CrowdMetrics reference = run_d2d_crowd(reference_config);
  const std::string reference_json = metrics_json(reference);

  struct Arm {
    const char* label;
    std::size_t threads;
  };
  for (const Arm& spec : {Arm{"profiled serial", 1},
                          Arm{"profiled 4 threads", 4}}) {
    CrowdConfig config = striped_crowd(4242);
    config.threads = spec.threads;
    config.profile = true;
    const CrowdMetrics profiled = run_d2d_crowd(config);
    EXPECT_EQ(profiled.total_l3, reference.total_l3) << spec.label;
    EXPECT_EQ(profiled.sim_events, reference.sim_events) << spec.label;
    EXPECT_DOUBLE_EQ(profiled.total_radio_uah, reference.total_radio_uah)
        << spec.label;
    // The deterministic export: byte-for-byte, runtime/ filtered out.
    EXPECT_EQ(metrics_json(profiled), reference_json) << spec.label;

    // The wall-clock data went somewhere real: the snapshot carries
    // runtime/ entries and the runtime exporter surfaces them.
    EXPECT_TRUE(profiled.profile.enabled) << spec.label;
    bool saw_runtime = false;
    for (const metrics::SnapshotEntry& e : profiled.metrics.entries) {
      if (metrics::is_runtime_metric(e.name)) saw_runtime = true;
    }
    EXPECT_TRUE(saw_runtime) << spec.label;
    EXPECT_NE(runtime_json(profiled).find("runtime/windows"),
              std::string::npos)
        << spec.label;
  }

  // The unprofiled reference has no runtime/ entries at all.
  for (const metrics::SnapshotEntry& e : reference.metrics.entries) {
    EXPECT_FALSE(metrics::is_runtime_metric(e.name)) << e.name;
  }
}

TEST(ProfileEquivalence, PerShardCountersMatchAcrossProfiledArms) {
  CrowdConfig serial = striped_crowd(977);
  serial.threads = 1;
  const CrowdMetrics a = run_d2d_crowd(serial);

  CrowdConfig profiled = striped_crowd(977);
  profiled.threads = 4;
  profiled.profile = true;
  const CrowdMetrics b = run_d2d_crowd(profiled);

  // The deterministic per-shard counters (plain RunStats fields, not
  // registry entries) agree at every thread count, profiled or not.
  ASSERT_FALSE(a.shard_events_executed.empty());
  EXPECT_EQ(a.shard_events_executed, b.shard_events_executed);
}

TEST(ProfileEquivalence, CallerOwnedProfilerCarriesTheTrace) {
  sim::Profiler profiler;
  CrowdConfig config = striped_crowd(55);
  config.threads = 4;
  config.profiler = &profiler;
  const CrowdMetrics m = run_d2d_crowd(config);

  EXPECT_TRUE(m.profile.enabled);
  EXPECT_TRUE(profiler.finished());
  EXPECT_FALSE(profiler.spans().empty());
  std::ostringstream trace;
  profiler.write_chrome_trace(trace);
  EXPECT_NE(trace.str().find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(trace.str().find("d2dhb.trace.v1"), std::string::npos);
}

}  // namespace
}  // namespace d2dhb::scenario

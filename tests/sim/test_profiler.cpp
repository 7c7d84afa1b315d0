// The engine profiling layer: ScopedSpan RAII recording (exceptions
// included), deterministic (worker, seq) buffer merging, ProfileSummary
// math on synthetic spans, and the live engine integration — profiled
// runs must report real spans while staying byte-identical to
// unprofiled ones, and the deterministic per-shard counters must agree
// at every thread count.
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/trace_span.hpp"
#include "metrics/registry.hpp"
#include "sim/engine.hpp"
#include "sim/profiler.hpp"
#include "sim/simulator.hpp"

namespace d2dhb::sim {
namespace {

SpanRecord make_span(SpanKind kind, std::uint32_t shard,
                     std::uint64_t begin_us, std::uint64_t duration_us,
                     std::uint64_t payload) {
  SpanRecord r;
  r.kind = kind;
  r.shard = shard;
  r.begin_ns = begin_us * 1000;
  r.end_ns = (begin_us + duration_us) * 1000;
  r.payload = payload;
  return r;
}

TEST(TraceSpan, ScopedSpanRecordsOnNormalExit) {
  SpanBuffer buffer{3};
  {
    ScopedSpan span(&buffer, SpanKind::execute, 7);
    span.set_payload(42);
  }
  ASSERT_EQ(buffer.size(), 1u);
  const SpanRecord& r = buffer.spans().front();
  EXPECT_EQ(r.kind, SpanKind::execute);
  EXPECT_EQ(r.worker, 3u);
  EXPECT_EQ(r.shard, 7u);
  EXPECT_EQ(r.seq, 0u);
  EXPECT_EQ(r.payload, 42u);
  EXPECT_GE(r.end_ns, r.begin_ns);
}

TEST(TraceSpan, ScopedSpanRecordsWhenScopeUnwindsThroughException) {
  SpanBuffer buffer{0};
  try {
    ScopedSpan span(&buffer, SpanKind::execute, 1);
    span.set_payload(5);
    throw std::runtime_error("boom");
  } catch (const std::runtime_error&) {
  }
  ASSERT_EQ(buffer.size(), 1u);
  EXPECT_EQ(buffer.spans().front().kind, SpanKind::execute);
  EXPECT_EQ(buffer.spans().front().payload, 5u);
}

TEST(TraceSpan, ExplicitCloseIsIdempotent) {
  SpanBuffer buffer{0};
  {
    ScopedSpan span(&buffer, SpanKind::window);
    span.close();
    span.close();  // second close and the destructor must both no-op
  }
  EXPECT_EQ(buffer.size(), 1u);
}

TEST(TraceSpan, NullBufferMakesSpansNoOps) {
  ScopedSpan span(nullptr, SpanKind::execute, 0);
  span.set_payload(1);
  span.close();  // must not crash; nothing to record into
}

TEST(TraceSpan, BufferStampsMonotoneSequenceNumbers) {
  SpanBuffer buffer{2};
  for (int i = 0; i < 3; ++i) {
    buffer.push(make_span(SpanKind::execute, 0, 0, 1, 0));
  }
  ASSERT_EQ(buffer.size(), 3u);
  for (std::uint64_t i = 0; i < 3; ++i) {
    EXPECT_EQ(buffer.spans()[i].seq, i);
    EXPECT_EQ(buffer.spans()[i].worker, 2u);
  }
}

TEST(Profiler, MergesBuffersInWorkerSeqOrder) {
  Profiler profiler;
  profiler.begin_run(2, 2);
  // Interleave pushes across buffers; the merge must come out grouped
  // by worker (main thread last) with seq ascending within each.
  profiler.buffer(1)->push(make_span(SpanKind::execute, 1, 10, 5, 0));
  profiler.buffer(0)->push(make_span(SpanKind::execute, 0, 0, 5, 0));
  profiler.main_buffer()->push(make_span(SpanKind::window,
                                         SpanRecord::kNoShard, 0, 20, 0));
  profiler.buffer(0)->push(
      make_span(SpanKind::barrier_wait, SpanRecord::kNoShard, 6, 1, 0));
  profiler.end_run();

  const std::vector<SpanRecord>& merged = profiler.spans();
  ASSERT_EQ(merged.size(), 4u);
  for (std::size_t i = 1; i < merged.size(); ++i) {
    const bool ordered =
        merged[i - 1].worker < merged[i].worker ||
        (merged[i - 1].worker == merged[i].worker &&
         merged[i - 1].seq < merged[i].seq);
    EXPECT_TRUE(ordered) << "records " << i - 1 << " and " << i;
  }
  EXPECT_EQ(merged[0].worker, 0u);
  EXPECT_EQ(merged.back().worker, 2u);  // the main thread's buffer
}

TEST(Profiler, SummarizeComputesPhaseTotalsPercentilesAndImbalance) {
  Profiler profiler;
  profiler.begin_run(2, 2);
  SpanBuffer* main = profiler.main_buffer();
  main->push(make_span(SpanKind::window, SpanRecord::kNoShard, 0, 100, 0));
  main->push(make_span(SpanKind::window, SpanRecord::kNoShard, 100, 100, 1));
  profiler.buffer(0)->push(make_span(SpanKind::execute, 0, 10, 50, 100));
  profiler.buffer(0)->push(
      make_span(SpanKind::barrier_wait, SpanRecord::kNoShard, 60, 20, 0));
  profiler.buffer(1)->push(make_span(SpanKind::execute, 1, 10, 100, 200));
  profiler.buffer(1)->push(
      make_span(SpanKind::barrier_wait, SpanRecord::kNoShard, 110, 40, 1));
  profiler.end_run();

  const ProfileSummary s = profiler.summarize();
  EXPECT_TRUE(s.enabled);
  EXPECT_EQ(s.workers, 2u);
  EXPECT_EQ(s.windows, 2u);
  EXPECT_EQ(s.windowed_ns, 200'000u);
  EXPECT_EQ(s.serial_tail_ns, 0u);
  EXPECT_EQ(s.drain_ns, 0u);
  EXPECT_EQ(s.execute_ns, 150'000u);
  EXPECT_EQ(s.barrier_wait_ns, 60'000u);
  ASSERT_EQ(s.shard_busy_ns.size(), 2u);
  EXPECT_EQ(s.shard_busy_ns[0], 50'000u);
  EXPECT_EQ(s.shard_busy_ns[1], 100'000u);
  ASSERT_EQ(s.shard_events.size(), 2u);
  EXPECT_EQ(s.shard_events[0], 100u);
  EXPECT_EQ(s.shard_events[1], 200u);
  EXPECT_EQ(s.barrier_waits, 2u);
  // Nearest-rank over {20, 40} µs.
  EXPECT_DOUBLE_EQ(s.barrier_wait_p50_us, 20.0);
  EXPECT_DOUBLE_EQ(s.barrier_wait_p90_us, 40.0);
  EXPECT_DOUBLE_EQ(s.barrier_wait_p99_us, 40.0);
  EXPECT_DOUBLE_EQ(s.barrier_wait_max_us, 40.0);
  // max / mean busy = 100k / 75k.
  EXPECT_NEAR(s.load_imbalance, 100.0 / 75.0, 1e-9);
  // execute / (workers × round wall) = 150k / 400k.
  EXPECT_NEAR(s.window_utilization, 0.375, 1e-9);
  EXPECT_GT(s.wall_ns, 0u);
}

TEST(Profiler, RearmingDiscardsThePreviousRun) {
  Profiler profiler;
  profiler.begin_run(1, 1);
  profiler.buffer(0)->push(make_span(SpanKind::execute, 0, 0, 5, 1));
  profiler.end_run();
  ASSERT_EQ(profiler.spans().size(), 1u);
  profiler.begin_run(1, 1);
  profiler.end_run();
  EXPECT_TRUE(profiler.spans().empty());
}

/// The engine-side workload: each shard ticks on its own cadence and
/// schedules a delayed follow-up on its own kernel (mirrors
/// test_engine.cpp's ring).
class RingWorkload {
 public:
  RingWorkload(Simulator& sim, int ticks) : sim_(sim), ticks_(ticks) {
    for (std::uint32_t s = 0; s < sim_.shard_count(); ++s) {
      ShardGuard guard(sim_, s);
      schedule_tick(s, 0);
    }
  }

 private:
  void schedule_tick(std::uint32_t shard, int i) {
    sim_.schedule_after(milliseconds(7 + shard), [this, shard, i] {
      sim_.schedule_after(milliseconds(60), [] {});
      if (i + 1 < ticks_) schedule_tick(shard, i + 1);
    });
  }

  Simulator& sim_;
  int ticks_;
};

TEST(Profiler, EngineRunFillsProfileSummary) {
  Simulator sim{4};
  RingWorkload load{sim, 40};
  RunOptions options;
  options.threads = 4;
  options.profile = true;
  const RunStats stats = run(sim, TimePoint{} + seconds(2), options);

  const ProfileSummary& p = stats.profile;
  EXPECT_TRUE(p.enabled);
  EXPECT_EQ(p.workers, stats.workers);
  EXPECT_EQ(p.windows, stats.windows);
  EXPECT_GT(p.windows, 0u);
  EXPECT_GT(p.windowed_ns, 0u);
  EXPECT_GT(p.execute_ns, 0u);
  ASSERT_EQ(p.shard_busy_ns.size(), sim.shard_count());
  ASSERT_EQ(p.shard_events.size(), sim.shard_count());
  std::uint64_t span_events = 0;
  for (std::uint64_t e : p.shard_events) span_events += e;
  EXPECT_EQ(span_events, sim.executed_events());
  EXPECT_GT(p.barrier_waits, 0u);
  EXPECT_LE(p.barrier_wait_p50_us, p.barrier_wait_p90_us);
  EXPECT_LE(p.barrier_wait_p90_us, p.barrier_wait_p99_us);
  EXPECT_LE(p.barrier_wait_p99_us, p.barrier_wait_max_us);
  EXPECT_GE(p.load_imbalance, 1.0);
  EXPECT_GT(p.window_utilization, 0.0);
  EXPECT_LE(p.window_utilization, 1.0);
  // One barrier wait per worker per round, measured at the join.
  EXPECT_EQ(p.barrier_waits, stats.workers * stats.windows);
  EXPECT_EQ(p.drain_ns, 0u);
  EXPECT_EQ(p.serial_tail_ns, 0u);
}

TEST(Profiler, UnprofiledRunLeavesSummaryDisabled) {
  Simulator sim{2};
  RingWorkload load{sim, 10};
  RunOptions options;
  options.threads = 2;
  const RunStats stats = run(sim, TimePoint{} + seconds(1), options);
  EXPECT_FALSE(stats.profile.enabled);
  EXPECT_EQ(stats.profile.windows, 0u);
}

TEST(Profiler, CallerOwnedProfilerKeepsSpansAndPublishesRuntimeMetrics) {
  Simulator sim{2};
  RingWorkload load{sim, 20};
  Profiler profiler;
  RunOptions options;
  options.threads = 2;
  options.profiler = &profiler;  // implies profile
  const RunStats stats = run(sim, TimePoint{} + seconds(1), options);

  EXPECT_TRUE(stats.profile.enabled);
  EXPECT_TRUE(profiler.finished());
  EXPECT_FALSE(profiler.spans().empty());

  // publish() ran inside the engine: the registry now carries the
  // runtime/ namespace (and only profiled runs do).
  const metrics::Snapshot snapshot = sim.metrics().snapshot();
  bool saw_runtime = false;
  for (const metrics::SnapshotEntry& e : snapshot.entries) {
    if (e.name.rfind("runtime/", 0) == 0) saw_runtime = true;
  }
  EXPECT_TRUE(saw_runtime);
  EXPECT_DOUBLE_EQ(snapshot.gauge("runtime/windows"),
                   static_cast<double>(stats.windows));
}

TEST(Engine, PerShardCountersAreDeterministicAcrossThreadCounts) {
  const TimePoint until = TimePoint{} + seconds(2);

  Simulator serial{4};
  RingWorkload serial_load{serial, 40};
  const RunStats serial_stats = run(serial, until);

  Simulator parallel{4};
  RingWorkload parallel_load{parallel, 40};
  RunOptions options;
  options.threads = 4;
  options.profile = true;  // profiling must not perturb the counters
  const RunStats parallel_stats = run(parallel, until, options);

  ASSERT_EQ(serial_stats.shard_events_executed.size(), 4u);
  EXPECT_EQ(serial_stats.shard_events_executed,
            parallel_stats.shard_events_executed);
  std::uint64_t total = 0;
  for (std::uint64_t e : serial_stats.shard_events_executed) total += e;
  EXPECT_EQ(total, serial.executed_events());
}

}  // namespace
}  // namespace d2dhb::sim

// The unified run engine (sim/engine.hpp): 1-worker and threaded runs of
// independent kernels, audited rounds, error propagation, and the
// byte-identical contract against the global (when, seq) merge order of
// Simulator::step — on a raw Simulator (no scenario layer — the
// executor alone is under test here).
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/engine.hpp"
#include "sim/simulator.hpp"

namespace d2dhb::sim {
namespace {

/// A deterministic multi-kernel workload: each shard ticks on its own
/// cadence, and every tick schedules a delayed follow-up on its own
/// kernel (60 ms later — the shape of an uplink delivery). Every log
/// entry is appended by the kernel that owns its shard — one writer
/// per vector, inline and threaded alike.
class RingWorkload {
 public:
  RingWorkload(Simulator& sim, int ticks)
      : sim_(sim), ticks_(ticks), logs_(sim.shard_count()) {
    for (std::uint32_t s = 0; s < sim_.shard_count(); ++s) {
      ShardGuard guard(sim_, s);
      schedule_tick(s, 0);
    }
  }

  const std::vector<std::vector<std::string>>& logs() const { return logs_; }

 private:
  void note(std::uint32_t shard, const std::string& what) {
    logs_[shard].push_back(
        what + " @us=" +
        std::to_string(to_microseconds(sim_.now() - TimePoint{})) +
        " on " + std::to_string(sim_.current_shard()));
  }

  void schedule_tick(std::uint32_t shard, int i) {
    sim_.schedule_after(milliseconds(7 + shard), [this, shard, i] {
      note(shard, "tick " + std::to_string(i));
      sim_.schedule_after(milliseconds(60), [this, shard, i] {
        note(shard, "follow-up " + std::to_string(i));
      });
      if (i + 1 < ticks_) schedule_tick(shard, i + 1);
    });
  }

  static std::int64_t to_microseconds(Duration d) {
    return std::chrono::duration_cast<std::chrono::microseconds>(d).count();
  }

  Simulator& sim_;
  int ticks_;
  std::vector<std::vector<std::string>> logs_;
};

TEST(Engine, SerialFallbackMatchesRunUntil) {
  const TimePoint until = TimePoint{} + seconds(2);

  Simulator classic{4};
  RingWorkload classic_load{classic, 30};
  classic.run_until(until);

  Simulator engine{4};
  RingWorkload engine_load{engine, 30};
  const RunStats stats = run(engine, until);  // defaults: threads = 1

  EXPECT_EQ(stats.workers, 1u);
  // One round straight to `until`, unless audits are armed (the
  // D2DHB_AUDIT build), which split the run into rounds.
  if (engine.audit_interval() == 0) {
    EXPECT_EQ(stats.windows, 1u);
  }
  EXPECT_EQ(engine.executed_events(), classic.executed_events());
  EXPECT_EQ(engine.now(), until);
  for (std::uint32_t s = 0; s < engine.shard_count(); ++s) {
    EXPECT_EQ(engine.kernel(s).now(), until) << "kernel " << s;
  }
  EXPECT_EQ(engine_load.logs(), classic_load.logs());
}

// The retained merge-step executes events in global (when, seq) order;
// the per-kernel engine must give every kernel exactly that order.
TEST(Engine, RunMatchesTheStepMergeOrder) {
  const TimePoint until = TimePoint{} + seconds(2);

  Simulator stepped{4};
  RingWorkload stepped_load{stepped, 40};
  while (stepped.step(until)) {
  }

  Simulator engine{4};
  RingWorkload engine_load{engine, 40};
  run(engine, until);

  EXPECT_EQ(engine.executed_events(), stepped.executed_events());
  EXPECT_EQ(engine_load.logs(), stepped_load.logs());
}

TEST(Engine, ParallelRunIsByteIdenticalToSerial) {
  const TimePoint until = TimePoint{} + seconds(2);

  Simulator serial{4};
  RingWorkload serial_load{serial, 40};
  run(serial, until);

  Simulator parallel{4};
  RingWorkload parallel_load{parallel, 40};
  RunOptions options;
  options.threads = 4;
  const RunStats stats = run(parallel, until, options);

  EXPECT_EQ(stats.workers, 4u);
  if (parallel.audit_interval() == 0) {
    EXPECT_EQ(stats.windows, 1u);
  }
  EXPECT_EQ(parallel.executed_events(), serial.executed_events());
  EXPECT_EQ(parallel.now(), serial.now());
  EXPECT_EQ(parallel_load.logs(), serial_load.logs());
}

TEST(Engine, WorkerCountIsCappedByKernelCount) {
  Simulator sim{3};
  RingWorkload load{sim, 10};
  RunOptions options;
  options.threads = 8;
  const RunStats stats = run(sim, TimePoint{} + seconds(1), options);
  EXPECT_EQ(stats.workers, 3u);
  EXPECT_EQ(stats.shard_events_executed.size(), 3u);
}

// Audits need a quiesced world, so an audited run stops every kernel
// at the same instant once per round and sweeps there — inline and
// threaded alike — without changing a single result.
TEST(Engine, AuditedRunSweepsAfterEveryRound) {
  const TimePoint until = TimePoint{} + seconds(5);

  Simulator plain{4};
  RingWorkload plain_load{plain, 60};
  run(plain, until);

  for (const std::size_t threads : {1u, 4u}) {
    Simulator sim{4};
    sim.set_audit_interval(Simulator::kDefaultAuditInterval);
    RingWorkload load{sim, 60};
    int sweeps = 0;
    sim.add_auditor([&] {
      ++sweeps;
      for (std::uint32_t s = 0; s < sim.shard_count(); ++s) {
        EXPECT_EQ(sim.kernel(s).now(), sim.now()) << "kernel " << s;
      }
    });
    RunOptions options;
    options.threads = threads;
    const RunStats stats = run(sim, until, options);
    EXPECT_GT(stats.windows, 1u) << threads << " threads";
    EXPECT_EQ(static_cast<std::uint64_t>(sweeps), stats.windows);
    EXPECT_EQ(sim.executed_events(), plain.executed_events());
    EXPECT_EQ(load.logs(), plain_load.logs());
  }
}

// A callback that throws on one worker must surface from sim::run
// after every worker has stopped.
TEST(Engine, WorkerExceptionPropagatesToTheCaller) {
  Simulator sim{4};
  RingWorkload load{sim, 10};
  {
    ShardGuard guard(sim, 2);
    sim.schedule_at(TimePoint{} + milliseconds(30),
                    [] { throw std::runtime_error("kernel 2 failed"); });
  }
  RunOptions options;
  options.threads = 4;
  EXPECT_THROW(run(sim, TimePoint{} + seconds(1), options),
               std::runtime_error);
}

// Kernels are claimed in index order, so when kernels 1 and 2 both
// throw, kernel 1 has always been claimed and run: every thread count
// rethrows its exception, whichever worker ran it.
TEST(Engine, LowestThrowingKernelWinsAtEveryThreadCount) {
  for (const std::size_t threads : {1u, 2u, 3u, 4u}) {
    Simulator sim{4};
    RingWorkload load{sim, 10};
    for (const std::uint32_t shard : {1u, 2u}) {
      ShardGuard guard(sim, shard);
      sim.schedule_at(TimePoint{} + milliseconds(30), [shard] {
        throw std::runtime_error("kernel " + std::to_string(shard));
      });
    }
    RunOptions options;
    options.threads = threads;
    try {
      run(sim, TimePoint{} + seconds(1), options);
      ADD_FAILURE() << "expected runtime_error at " << threads << " threads";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "kernel 1") << threads << " threads";
    }
  }
}

TEST(Engine, RejectsBadArguments) {
  Simulator sim;
  sim.run_until(TimePoint{} + seconds(2));
  EXPECT_THROW(run(sim, TimePoint{} + seconds(1)), std::invalid_argument);
}

}  // namespace
}  // namespace d2dhb::sim

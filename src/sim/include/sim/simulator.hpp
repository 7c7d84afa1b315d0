// World context for the discrete-event core.
//
// The slot/generation/heap machinery lives in sim::EventKernel; the
// Simulator is the world wrapped around it — the world clock, the
// unified metrics registry, the invariant-audit harness, and
// the set of event kernels, one per world strip.
//
// Kernels are independent: no event executing on one kernel ever
// schedules onto another (D2D links never leave a strip, and each
// uplink is delivered to the IM server on its sender's kernel). Each
// kernel draws sequence numbers from its own lane (kernel k of N draws
// k, k+N, k+2N, ...), so (when, seq) is a global total order without a
// shared counter. Running every kernel straight through to a target
// time therefore executes each kernel's events in exactly the order the
// global (when, seq) merge would — and every metric is identical for
// any thread count. run_until() (and sim::run, sim/engine.hpp) does
// that; step()/run(max_events) keep the O(kernels)-per-event global
// merge as the reference order the oracle tests compare against.
//
// Thread-awareness: while a thread executes a kernel (run_shard_until),
// a thread-local execution context routes now(),
// current_shard() and schedule_* to that kernel, so substrate code is
// oblivious to which thread runs it. Outside any execution context the
// world-level members answer.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/units.hpp"
#include "sim/event_kernel.hpp"

namespace d2dhb::metrics {
class MetricsRegistry;
}

namespace d2dhb::sim {

namespace detail {
/// Thread-local execution context: which simulator/kernel the current
/// thread is executing. Installed by run_shard_until(); null outside
/// kernel execution (setup code and the step() merge).
struct ExecContext {
  const void* sim{nullptr};
  std::uint32_t shard{0};
};
inline thread_local constinit ExecContext exec_context{};
}  // namespace detail

class Simulator {
 public:
  using Callback = EventKernel::Callback;

  /// `shards` kernels share one world clock and one metrics registry;
  /// each draws sequence numbers from its own lane.
  explicit Simulator(std::size_t shards = 1);
  ~Simulator();
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulated time. Starts at the epoch (t = 0). Outside kernel
  /// execution this is the world clock — the end of the last run, or
  /// the time of the last event step() executed. While a kernel runs it
  /// is that kernel's clock, which during a callback equals the
  /// executing event's time.
  TimePoint now() const {
    if (in_exec_context()) {
      return kernels_[detail::exec_context.shard]->now();
    }
    return now_;
  }

  /// The world's unified metrics registry. Every substrate constructed
  /// against this simulator registers its counters/gauges here, keyed by
  /// (node, cell, component) labels — one queryable tree per run.
  metrics::MetricsRegistry& metrics() { return *metrics_; }
  const metrics::MetricsRegistry& metrics() const { return *metrics_; }

  // --- Sharding -----------------------------------------------------------

  std::size_t shard_count() const { return kernels_.size(); }

  /// The shard whose kernel is executing (or, outside execution, the
  /// shard that schedule_at/schedule_after will target).
  std::uint32_t current_shard() const { return active_shard(); }

  /// Redirects subsequent schedule_* calls to `shard`'s kernel. Setup
  /// code (Scenario::add_phone) uses this — via ShardGuard — so each
  /// agent's timers are created on its home kernel; during event
  /// execution the executing kernel is selected automatically.
  void set_scheduling_shard(std::uint32_t shard);

  EventKernel& kernel(std::uint32_t shard);

  /// Always INT64_MAX: no event is ever posted across kernels, so there
  /// is no cross-kernel slack to report. Kept (with RunStats'
  /// cross-kernel fields) only for the repo benchmark's reader.
  std::int64_t cross_min_slack_us() const { return INT64_MAX; }

  // --- Executor hooks (see sim/engine.hpp) --------------------------------

  /// Executes `shard`'s kernel through `t` (events at exactly `t`
  /// included), then advances its clock to `t`, with this thread's
  /// execution context installed so callbacks see the kernel-local
  /// now()/current_shard(). Safe to call concurrently for distinct
  /// shards: shared substrates (the IM server, cell signaling, the
  /// ledger, the channel) keep one lane per strip, and registry
  /// counters are relaxed atomics.
  void run_shard_until(std::uint32_t shard, TimePoint t);

  /// Advances the world clock (not the kernels) to `t` (>= now()); the
  /// executor calls this once every kernel reached `t`, so audits and
  /// end-of-run accounting see a consistent world time.
  void advance_world_to(TimePoint t);

  // --- Scheduling (current shard) -----------------------------------------

  /// Schedules `fn` at absolute time `t` (must be >= now()).
  EventId schedule_at(TimePoint t, Callback fn);

  /// Schedules `fn` after `delay` (must be >= 0).
  EventId schedule_after(Duration delay, Callback fn);

  /// Cancels a pending event. Safe to call for already-fired or already-
  /// cancelled events; returns whether the event was still pending. The
  /// id's shard bits route it to the kernel that issued it.
  bool cancel(EventId id);

  /// The current shard's EventKernel::reserve_seq(),
  /// EventKernel::reserve_seqs() and EventKernel::executing_seq().
  std::uint64_t reserve_seq() {
    return kernels_[active_shard()]->reserve_seq();
  }
  EventKernel::SeqBlock reserve_seqs(std::uint64_t count) {
    return kernels_[active_shard()]->reserve_seqs(count);
  }
  std::uint64_t executing_seq() const {
    return kernels_[active_shard()]->executing_seq();
  }

  /// Executes the globally next event — the smallest (when, seq) across
  /// all kernels, found by scanning every kernel head — if its time is
  /// <= `limit`, advancing the world clock. Returns false if no kernel
  /// holds such an event. This O(kernels)-per-event merge is the
  /// reference for global (when, seq) order; production runs go through
  /// run_until()/sim::run instead.
  bool step(TimePoint limit = TimePoint::max());

  /// step() until the queues drain or `max_events` have executed.
  void run(std::uint64_t max_events = UINT64_MAX);

  /// Runs every kernel through `t` (events at exactly `t` included),
  /// then leaves the world clock and every kernel clock at exactly `t`
  /// (so idle intervals at the end of an experiment are accounted for).
  /// Equivalent to sim::run(*this, t) with default options.
  void run_until(TimePoint t);

  std::uint64_t executed_events() const;
  /// Number of live (scheduled, not yet fired or cancelled) events.
  std::size_t pending_events() const;

  // --- Invariant auditing -------------------------------------------------
  //
  // The audit layer re-derives the bookkeeping from scratch and throws
  // AuditError on any mismatch: each kernel's slot/heap cross-references
  // and ordering property, kernel clocks never ahead of the world clock.
  // Substrates (WifiDirectMedium, NodeTable consumers) register their
  // own auditors; all auditors run together every `audit_interval`
  // events executed by step(), and after every round of a sim::run
  // (which then advances the kernels in rounds, sim/engine.hpp).
  // Builds configured with -DD2DHB_AUDIT=ON enable the periodic sweep
  // by default; it is off in normal builds (audit() itself is always
  // available for tests).

  /// External invariant check, run after the kernel self-audits.
  using Auditor = std::function<void()>;

  /// Registers `fn`; returns a token for remove_auditor(). Auditors run
  /// in registration order.
  std::uint64_t add_auditor(Auditor fn);
  void remove_auditor(std::uint64_t token);

  /// Runs the kernel self-audits plus every registered auditor once.
  /// Throws AuditError or whatever the auditor throws.
  void audit() const;

  /// Audits automatically every `every_n_events` events executed by
  /// step(), and after every round of a run (0 disables both).
  /// D2DHB_AUDIT builds default to kDefaultAuditInterval.
  void set_audit_interval(std::uint64_t every_n_events) {
    audit_interval_ = every_n_events;
  }
  std::uint64_t audit_interval() const { return audit_interval_; }

  static constexpr std::uint64_t kDefaultAuditInterval = 2048;

  /// Test-only: zeroes a kernel-0 slot's generation counter so audit()
  /// trips its "generation must be non-zero" invariant. Never call
  /// outside tests.
  void debug_corrupt_slot_generation(std::uint32_t slot);

 private:
  void maybe_audit();

  bool in_exec_context() const { return detail::exec_context.sim == this; }
  /// The shard scheduling targets right now: the executing kernel while
  /// one runs, otherwise the selected scheduling shard.
  std::uint32_t active_shard() const {
    return in_exec_context() ? detail::exec_context.shard : current_shard_;
  }

  std::unique_ptr<metrics::MetricsRegistry> metrics_;
  TimePoint now_{};
  std::uint32_t current_shard_{0};
  std::vector<std::unique_ptr<EventKernel>> kernels_;
  std::uint64_t audit_interval_{0};
  std::uint64_t next_auditor_token_{1};
  std::vector<std::pair<std::uint64_t, Auditor>> auditors_;
};

/// RAII selector for the scheduling shard: setup code wraps per-agent
/// construction in a ShardGuard so the agent's timers land on its home
/// kernel, and the previous shard is restored on scope exit.
class ShardGuard {
 public:
  ShardGuard(Simulator& sim, std::uint32_t shard)
      : sim_(sim), previous_(sim.current_shard()) {
    sim_.set_scheduling_shard(shard);
  }
  ~ShardGuard() { sim_.set_scheduling_shard(previous_); }
  ShardGuard(const ShardGuard&) = delete;
  ShardGuard& operator=(const ShardGuard&) = delete;

 private:
  Simulator& sim_;
  std::uint32_t previous_;
};

/// Repeating timer built on the simulator. Survives cancellation and
/// restart; owner must outlive the simulator run or call stop().
class PeriodicTimer {
 public:
  PeriodicTimer(Simulator& sim, Duration period, Simulator::Callback on_tick);
  ~PeriodicTimer();
  PeriodicTimer(const PeriodicTimer&) = delete;
  PeriodicTimer& operator=(const PeriodicTimer&) = delete;

  /// Starts ticking; the first tick fires one period from now (or after
  /// `initial_delay` when given).
  void start();
  void start_after(Duration initial_delay);
  void stop();
  bool running() const { return running_; }
  Duration period() const { return period_; }

 private:
  void arm(Duration delay);

  Simulator& sim_;
  Duration period_;
  Simulator::Callback on_tick_;
  EventId pending_{};
  bool running_{false};
};

}  // namespace d2dhb::sim

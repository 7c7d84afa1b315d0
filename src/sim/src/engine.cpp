#include "sim/engine.hpp"

#include <algorithm>
#include <memory>
#include <optional>
#include <stdexcept>
#include <vector>

#include "common/memory.hpp"
#include "common/parallel.hpp"
#include "common/trace_span.hpp"

namespace d2dhb::sim {

namespace {

/// One round: every kernel advanced through `target`, each claimed by
/// the next free worker (common/parallel.hpp) and run under its execute
/// span. The join is the round's only barrier: each worker's idle
/// stretch from finishing its last kernel to the join is recorded as
/// its barrier_wait span (written after the join, which publishes
/// every worker's buffer to this thread). A 1-worker round has no
/// barrier and records none.
void run_round(Simulator& sim, TimePoint target, std::size_t workers,
               Profiler* profiler, std::uint64_t round) {
  auto spans_of = [profiler](std::size_t worker) {
    return profiler == nullptr ? nullptr : profiler->buffer(worker);
  };
  // A worker that claims no kernel waits from the round's start.
  std::vector<std::uint64_t> finished_ns;
  if (profiler != nullptr) finished_ns.assign(workers, trace_now_ns());
  auto run_kernel = [&](std::size_t worker, std::size_t k) {
    const auto shard = static_cast<std::uint32_t>(k);
    ScopedSpan span(spans_of(worker), SpanKind::execute, shard);
    const std::uint64_t before = sim.kernel(shard).executed_events();
    sim.run_shard_until(shard, target);
    span.set_payload(sim.kernel(shard).executed_events() - before);
    span.close();
    if (profiler != nullptr) finished_ns[worker] = trace_now_ns();
  };
  for_each_claimed(sim.shard_count(), workers, run_kernel);
  if (profiler != nullptr && workers > 1) {
    const std::uint64_t joined_ns = trace_now_ns();
    for (std::size_t w = 0; w < workers; ++w) {
      SpanRecord wait;
      wait.kind = SpanKind::barrier_wait;
      wait.begin_ns = finished_ns[w];
      wait.end_ns = joined_ns;
      wait.payload = round;
      spans_of(w)->push(wait);
    }
  }
}

/// The earliest pending event time across all kernels, or nullopt when
/// every kernel is drained. Only called between rounds.
std::optional<TimePoint> earliest_pending(Simulator& sim) {
  std::optional<TimePoint> earliest;
  for (std::uint32_t s = 0; s < sim.shard_count(); ++s) {
    if (const auto head = sim.kernel(s).peek()) {
      if (!earliest || head->when < *earliest) earliest = head->when;
    }
  }
  return earliest;
}

void collect(Simulator& sim, RunStats& stats) {
  stats.shard_events_executed.reserve(sim.shard_count());
  for (std::uint32_t s = 0; s < sim.shard_count(); ++s) {
    stats.shard_events_executed.push_back(sim.kernel(s).executed_events());
  }
  stats.shard_mailbox_delivered.assign(sim.shard_count(), 0);
  stats.peak_rss_bytes = peak_rss_bytes();
}

}  // namespace

RunStats run(Simulator& sim, TimePoint until, const RunOptions& options) {
  if (until < sim.now()) {
    throw std::invalid_argument("sim::run: target time in the past");
  }
  RunStats stats;
  stats.workers = std::max<std::size_t>(
      1, std::min(options.threads, sim.shard_count()));
  // A caller-owned profiler keeps the merged spans (trace export); bare
  // `profile` uses a run-local one that only feeds RunStats::profile
  // and the runtime/ registry names.
  Profiler* profiler = options.profiler;
  std::unique_ptr<Profiler> run_local;
  if (profiler == nullptr && options.profile) {
    run_local = std::make_unique<Profiler>();
    profiler = run_local.get();
  }
  if (profiler != nullptr) {
    profiler->begin_run(stats.workers, sim.shard_count());
  }
  SpanBuffer* main_spans =
      profiler == nullptr ? nullptr : profiler->main_buffer();
  const bool audited = sim.audit_interval() != 0;
  for (;;) {
    // Unaudited runs are one round straight to `until`. Audited runs
    // stop every kAuditRound of simulated time (hopping over idle
    // stretches) so the sweep sees every kernel at the same instant.
    TimePoint target = until;
    if (audited) {
      if (const auto next = earliest_pending(sim); next && *next < until) {
        target = std::min(until, *next + kAuditRound);
      }
    }
    ScopedSpan round_span(main_spans, SpanKind::window);
    round_span.set_payload(stats.windows);
    run_round(sim, target, stats.workers, profiler, stats.windows);
    sim.advance_world_to(target);
    round_span.close();
    ++stats.windows;
    if (audited) sim.audit();
    if (target == until) break;
  }
  if (profiler != nullptr) {
    profiler->end_run();
    stats.profile = profiler->summarize();
    profiler->publish(sim.metrics());
  }
  collect(sim, stats);
  return stats;
}

}  // namespace d2dhb::sim

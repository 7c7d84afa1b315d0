#include "sim/simulator.hpp"

#include <algorithm>
#include <utility>

#include "metrics/registry.hpp"
#include "sim/engine.hpp"

namespace d2dhb::sim {

Simulator::Simulator(std::size_t shards)
    : metrics_(std::make_unique<metrics::MetricsRegistry>()) {
  if (shards == 0 || shards > EventKernel::kMaxShards) {
    throw std::invalid_argument("Simulator: shard count must be in [1, " +
                                std::to_string(EventKernel::kMaxShards) + "]");
  }
  kernels_.reserve(shards);
  for (std::size_t s = 0; s < shards; ++s) {
    const auto shard = static_cast<std::uint32_t>(s);
    kernels_.push_back(std::make_unique<EventKernel>(shard));
    // Kernel k draws sequence numbers k, k+N, k+2N, ... — globally
    // unique without a shared counter, so kernels can draw concurrently
    // from worker threads. With one shard this is the plain 0,1,2,...
    // counter the monolith used.
    kernels_.back()->set_seq_lane(s, shards);
  }
#ifdef D2DHB_AUDIT
  audit_interval_ = kDefaultAuditInterval;
#endif
}

Simulator::~Simulator() = default;

void Simulator::set_scheduling_shard(std::uint32_t shard) {
  if (shard >= kernels_.size()) {
    throw std::out_of_range("Simulator::set_scheduling_shard: shard " +
                            std::to_string(shard) + " out of range");
  }
  current_shard_ = shard;
}

EventKernel& Simulator::kernel(std::uint32_t shard) {
  if (shard >= kernels_.size()) {
    throw std::out_of_range("Simulator::kernel: shard " +
                            std::to_string(shard) + " out of range");
  }
  return *kernels_[shard];
}

void Simulator::run_shard_until(std::uint32_t shard, TimePoint t) {
  if (shard >= kernels_.size()) {
    throw std::out_of_range("Simulator::run_shard_until: shard " +
                            std::to_string(shard) + " out of range");
  }
  const detail::ExecContext previous = detail::exec_context;
  detail::exec_context = detail::ExecContext{this, shard};
  try {
    kernels_[shard]->run_until(t);
  } catch (...) {
    detail::exec_context = previous;
    throw;
  }
  detail::exec_context = previous;
}

void Simulator::advance_world_to(TimePoint t) {
  if (t < now_) {
    throw std::invalid_argument(
        "Simulator::advance_world_to: time in the past");
  }
  if (t > now_) {
    now_ = t;
    ++time_epoch_;
  }
}

EventId Simulator::schedule_at(TimePoint t, Callback fn) {
  if (t < now()) {
    throw std::invalid_argument("Simulator::schedule_at: time in the past");
  }
  return kernels_[active_shard()]->schedule_at(t, std::move(fn));
}

EventId Simulator::schedule_after(Duration delay, Callback fn) {
  if (delay < Duration::zero()) {
    throw std::invalid_argument("Simulator::schedule_after: negative delay");
  }
  return schedule_at(now() + delay, std::move(fn));
}

bool Simulator::cancel(EventId id) {
  const auto shard = static_cast<std::uint32_t>((id.value >> 32) & 0xffu);
  if (shard >= kernels_.size()) return false;
  return kernels_[shard]->cancel(id);
}

void Simulator::maybe_audit() {
  if (audit_interval_ != 0 && executed_events() % audit_interval_ == 0) {
    audit();
  }
}

bool Simulator::step(TimePoint limit) {
  std::size_t best = kernels_.size();
  EventKernel::Head best_head{};
  for (std::size_t s = 0; s < kernels_.size(); ++s) {
    const auto head = kernels_[s]->peek();
    if (!head) continue;
    if (best == kernels_.size() || head->when < best_head.when ||
        (head->when == best_head.when && head->seq < best_head.seq)) {
      best = s;
      best_head = *head;
    }
  }
  if (best == kernels_.size() || best_head.when > limit) return false;
  if (best_head.when != now_) {
    now_ = best_head.when;
    ++time_epoch_;
  }
  current_shard_ = static_cast<std::uint32_t>(best);
  kernels_[best]->step();
  maybe_audit();
  return true;
}

void Simulator::run(std::uint64_t max_events) {
  for (std::uint64_t i = 0; i < max_events; ++i) {
    if (!step()) return;
  }
}

void Simulator::run_until(TimePoint t) { sim::run(*this, t); }

std::uint64_t Simulator::executed_events() const {
  std::uint64_t total = 0;
  for (const auto& kernel : kernels_) total += kernel->executed_events();
  return total;
}

std::size_t Simulator::pending_events() const {
  std::size_t total = 0;
  for (const auto& kernel : kernels_) total += kernel->pending_events();
  return total;
}

std::uint64_t Simulator::add_auditor(Auditor fn) {
  const std::uint64_t token = next_auditor_token_++;
  auditors_.emplace_back(token, std::move(fn));
  return token;
}

void Simulator::remove_auditor(std::uint64_t token) {
  std::erase_if(auditors_,
                [token](const auto& entry) { return entry.first == token; });
}

void Simulator::debug_corrupt_slot_generation(std::uint32_t slot) {
  kernels_[0]->debug_corrupt_slot_generation(slot);
}

void Simulator::audit() const {
  // 1. Each kernel's self-audit, plus the world-clock invariant: a
  //    kernel's local clock may lag the world clock, never lead it.
  for (const auto& kernel : kernels_) {
    kernel->audit();
    if (kernel->now() > now_) {
      throw AuditError("Simulator audit: kernel " +
                       std::to_string(kernel->shard()) +
                       " clock is ahead of the world clock");
    }
  }

  // 2. Registered substrate auditors, in registration order.
  for (const auto& [token, fn] : auditors_) fn();
}

PeriodicTimer::PeriodicTimer(Simulator& sim, Duration period,
                             Simulator::Callback on_tick)
    : sim_(sim), period_(period), on_tick_(std::move(on_tick)) {
  if (period_ <= Duration::zero()) {
    throw std::invalid_argument("PeriodicTimer: period must be positive");
  }
}

PeriodicTimer::~PeriodicTimer() { stop(); }

void PeriodicTimer::start() { start_after(period_); }

void PeriodicTimer::start_after(Duration initial_delay) {
  stop();
  running_ = true;
  arm(initial_delay);
}

void PeriodicTimer::stop() {
  if (pending_.valid()) sim_.cancel(pending_);
  pending_ = EventId{};
  running_ = false;
}

void PeriodicTimer::arm(Duration delay) {
  pending_ = sim_.schedule_after(delay, [this] {
    pending_ = EventId{};
    // Re-arm before the tick so the callback may stop() the timer.
    arm(period_);
    on_tick_();
  });
}

}  // namespace d2dhb::sim

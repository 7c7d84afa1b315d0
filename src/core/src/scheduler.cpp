#include "core/scheduler.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace d2dhb::core {

const char* to_string(FlushReason reason) {
  switch (reason) {
    case FlushReason::capacity: return "capacity";
    case FlushReason::expiry: return "expiry";
    case FlushReason::window_end: return "window_end";
    case FlushReason::forced: return "forced";
  }
  return "?";
}

MessageScheduler::MessageScheduler(sim::Simulator& sim, Params params,
                                   FlushHandler on_flush)
    : sim_(sim), params_(params), on_flush_(std::move(on_flush)) {
  if (params_.capacity == 0) {
    throw std::invalid_argument("MessageScheduler: capacity must be >= 1");
  }
  if (params_.max_own_delay <= Duration::zero()) {
    throw std::invalid_argument(
        "MessageScheduler: max_own_delay must be positive");
  }
  if (params_.deadline_margin < Duration::zero()) {
    throw std::invalid_argument(
        "MessageScheduler: deadline_margin must be non-negative");
  }
  auto& reg = sim_.metrics();
  const metrics::Labels labels{params_.node.value, -1, "scheduler"};
  windows_ctr_ = &reg.counter("scheduler.windows", labels);
  collected_ctr_ = &reg.counter("scheduler.collected", labels);
  rejected_ctr_ = &reg.counter("scheduler.rejected", labels);
  flushed_messages_ctr_ = &reg.counter("scheduler.flushed_messages", labels);
  for (std::size_t i = 0; i < 4; ++i) {
    flush_ctrs_[i] = &reg.counter(
        std::string("scheduler.flushes.") +
            to_string(static_cast<FlushReason>(i)),
        labels);
  }
  // Bundle-size distribution: one bucket per count up to the paper's
  // sweet-spot capacity range (Fig. 9 peaks at M = 7).
  bundle_size_ = &reg.histogram("scheduler.bundle_size",
                                {1, 2, 3, 4, 5, 6, 7, 8}, labels);
}

MessageScheduler::~MessageScheduler() {
  if (deadline_event_.valid()) sim_.cancel(deadline_event_);
}

std::size_t MessageScheduler::remaining_capacity() const {
  return collected_.size() >= params_.capacity
             ? 0
             : params_.capacity - collected_.size();
}

void MessageScheduler::begin_window(net::HeartbeatMessage own) {
  if (own_) {
    // Previous window still open: periods never overlap, send it out.
    flush(FlushReason::window_end);
  }
  windows_ctr_->inc();
  window_deadline_ = own.created_at + params_.max_own_delay;
  own_ = std::move(own);
  rearm();
}

bool MessageScheduler::collect(net::HeartbeatMessage forwarded) {
  if (!params_.collect_between_windows && !own_) {
    rejected_ctr_->inc();
    return false;
  }
  if (collected_.size() >= params_.capacity) {
    // Shouldn't normally happen (we flush when k hits M), but guard it.
    rejected_ctr_->inc();
    return false;
  }
  collected_.push_back(std::move(forwarded));
  collected_ctr_->inc();
  if (collected_.size() >= params_.capacity) {
    flush(FlushReason::capacity);
  } else {
    rearm();
  }
  return true;
}

std::optional<TimePoint> MessageScheduler::next_deadline() const {
  std::optional<TimePoint> deadline;
  auto consider = [&](TimePoint t) {
    if (!deadline || t < *deadline) deadline = t;
  };
  if (own_) consider(window_deadline_);
  for (const auto& m : collected_) consider(m.deadline());
  return deadline;
}

void MessageScheduler::rearm() {
  if (deadline_event_.valid()) {
    sim_.cancel(deadline_event_);
    deadline_event_ = {};
  }
  const auto deadline = next_deadline();
  if (!deadline) return;
  TimePoint fire = *deadline - params_.deadline_margin;
  if (fire < sim_.now()) fire = sim_.now();
  deadline_event_ = sim_.schedule_at(fire, [this] {
    deadline_event_ = {};
    // Which bound fired? If it's the relay's own T, count as window_end.
    const TimePoint threshold = sim_.now() + params_.deadline_margin;
    const bool own_bound = own_ && window_deadline_ <= threshold;
    flush(own_bound ? FlushReason::window_end : FlushReason::expiry);
  });
}

void MessageScheduler::flush_now(FlushReason reason) { flush(reason); }

void MessageScheduler::flush(FlushReason reason) {
  if (!own_ && collected_.empty()) return;
  if (deadline_event_.valid()) {
    sim_.cancel(deadline_event_);
    deadline_event_ = {};
  }
  std::vector<net::HeartbeatMessage> batch;
  batch.reserve(collected_.size() + 1);
  if (own_) {
    batch.push_back(std::move(*own_));
    own_.reset();
  }
  for (auto& m : collected_) batch.push_back(std::move(m));
  collected_.clear();

  flush_ctrs_[static_cast<std::size_t>(reason)]->inc();
  flushed_messages_ctr_->inc(batch.size());
  bundle_size_->observe(static_cast<double>(batch.size()));
  on_flush_(std::move(batch), reason);
}

MessageScheduler::Stats MessageScheduler::stats() const {
  Stats s;
  s.windows = windows_ctr_->value();
  s.collected = collected_ctr_->value();
  s.rejected = rejected_ctr_->value();
  s.flushed_messages = flushed_messages_ctr_->value();
  for (std::size_t i = 0; i < 4; ++i) {
    s.by_reason[i] = flush_ctrs_[i]->value();
    s.flushes_total += s.by_reason[i];
  }
  return s;
}

}  // namespace d2dhb::core

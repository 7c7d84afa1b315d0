#include "core/feedback.hpp"

#include <algorithm>
#include <utility>

namespace d2dhb::core {

FeedbackTracker::FeedbackTracker(sim::Simulator& sim, Duration timeout,
                                 FallbackHandler on_fallback, NodeId node)
    : sim_(sim), timeout_(timeout), on_fallback_(std::move(on_fallback)) {
  auto& reg = sim_.metrics();
  const metrics::Labels labels{node.value, -1, "feedback"};
  tracked_ctr_ = &reg.counter("feedback.tracked", labels);
  acknowledged_ctr_ = &reg.counter("feedback.acknowledged", labels);
  timed_out_ctr_ = &reg.counter("feedback.timed_out", labels);
  failed_immediately_ctr_ = &reg.counter("feedback.failed_immediately", labels);
}

FeedbackTracker::~FeedbackTracker() {
  // cancel() only disarms slots — it never mutates the free list — so
  // cancellation order is invisible.
  for (auto& [id, entry] : pending_) sim_.cancel(entry.timeout_event);
}

void FeedbackTracker::track(const net::HeartbeatMessage& message) {
  const MessageId id = message.id;
  tracked_ctr_->inc();
  const sim::EventId event = sim_.schedule_after(timeout_, [this, id] {
    const auto it = pending_.find(id);
    if (it == pending_.end()) return;
    const net::HeartbeatMessage message = it->second.message;
    pending_.erase(it);
    timed_out_ctr_->inc();
    on_fallback_(message);
  });
  pending_.emplace(id, Entry{message, event});
}

void FeedbackTracker::acknowledge(const std::vector<MessageId>& delivered) {
  for (const MessageId id : delivered) {
    const auto it = pending_.find(id);
    if (it == pending_.end()) continue;
    sim_.cancel(it->second.timeout_event);
    pending_.erase(it);
    acknowledged_ctr_->inc();
  }
}

void FeedbackTracker::fail_all_pending() {
  std::vector<net::HeartbeatMessage> victims;
  victims.reserve(pending_.size());
  // Victims are sorted by MessageId below before any sim-visible
  // callback fires.
  for (const auto& [id, entry] : pending_) {
    sim_.cancel(entry.timeout_event);
    victims.push_back(entry.message);
  }
  pending_.clear();
  // Fallback transmissions must fire in a deterministic order — sort by
  // MessageId (ids are unique), not by hash-bucket layout.
  std::sort(victims.begin(), victims.end(),
            [](const net::HeartbeatMessage& a,
               const net::HeartbeatMessage& b) { return a.id < b.id; });
  failed_immediately_ctr_->inc(victims.size());
  for (const auto& message : victims) on_fallback_(message);
}

FeedbackTracker::Stats FeedbackTracker::stats() const {
  Stats s;
  s.tracked = tracked_ctr_->value();
  s.acknowledged = acknowledged_ctr_->value();
  s.timed_out = timed_out_ctr_->value();
  s.failed_immediately = failed_immediately_ctr_->value();
  return s;
}

}  // namespace d2dhb::core

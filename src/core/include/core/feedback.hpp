// UE-side feedback tracking (Section III-A).
//
// After forwarding a heartbeat to the relay, the UE waits for the
// relay's acknowledgment that the aggregate reached the BS. "In case
// that the UE does not receive the feedback information after a certain
// interval, it will send the heartbeat messages via cellular network."
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "common/id.hpp"
#include "common/units.hpp"
#include "metrics/registry.hpp"
#include "net/message.hpp"
#include "sim/simulator.hpp"

namespace d2dhb::core {

class FeedbackTracker {
 public:
  /// Invoked with the original heartbeat when feedback never arrived —
  /// the UE's cue to retransmit over cellular.
  using FallbackHandler = std::function<void(const net::HeartbeatMessage&)>;

  /// Point-in-time snapshot of the tracker's registry series.
  struct Stats {
    std::uint64_t tracked{0};
    std::uint64_t acknowledged{0};
    std::uint64_t timed_out{0};
    std::uint64_t failed_immediately{0};  ///< fail_all_pending() victims.
  };

  /// `node` labels this tracker's metrics (0 = unlabeled unit-test use).
  FeedbackTracker(sim::Simulator& sim, Duration timeout,
                  FallbackHandler on_fallback, NodeId node = {});
  ~FeedbackTracker();
  FeedbackTracker(const FeedbackTracker&) = delete;
  FeedbackTracker& operator=(const FeedbackTracker&) = delete;

  /// Arms a timeout for one forwarded heartbeat.
  void track(const net::HeartbeatMessage& message);

  /// Processes a relay's FeedbackAck; unknown ids are ignored.
  void acknowledge(const std::vector<MessageId>& delivered);

  /// Fails every pending message right now (the D2D link just died and
  /// waiting for the timeout would risk the expiry deadlines).
  void fail_all_pending();

  std::size_t pending() const { return pending_.size(); }
  /// Snapshot of this tracker's metrics (assembled from the registry).
  Stats stats() const;
  Duration timeout() const { return timeout_; }

 private:
  struct Entry {
    net::HeartbeatMessage message;
    sim::EventId timeout_event;
  };

  sim::Simulator& sim_;
  Duration timeout_;
  FallbackHandler on_fallback_;
  // detlint: allow(unordered-state): hot-path id lookups; the only
  // sim-visible iteration (fail_all_pending) sorts victims by MessageId
  // first, and the destructor sweep only cancels events (order-free).
  std::unordered_map<MessageId, Entry> pending_;

  // Registry-backed counters (owned by the simulator's registry).
  metrics::Counter* tracked_ctr_;
  metrics::Counter* acknowledged_ctr_;
  metrics::Counter* timed_out_ctr_;
  metrics::Counter* failed_immediately_ctr_;
};

}  // namespace d2dhb::core

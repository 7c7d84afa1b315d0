// Remote IM server with per-client expiration timers.
//
// "IM servers set expiration timers to determine a client is online or
// not" (Section II-A). The server is the ground truth for whether the
// framework's added forwarding delay ever knocked a client offline —
// the correctness criterion of the scheduling algorithm.
//
// Thread-safety: uplinks are delivered on their sender's kernel, so
// kernels running on different threads deliver concurrently. One mutex
// guards the session map. Each session is only ever written from its
// origin phone's strip (a relay and its UEs share a strip, because D2D
// links never leave one), so every session still sees its heartbeats
// in that kernel's (when, seq) order, and the totals are order-free
// sums — results stay byte-identical across thread counts.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "common/id.hpp"
#include "common/thread_annotations.hpp"
#include "common/units.hpp"
#include "metrics/registry.hpp"
#include "net/message.hpp"
#include "sim/simulator.hpp"

namespace d2dhb::net {

class ImServer {
 public:
  explicit ImServer(sim::Simulator& sim);

  /// Registers a client session. `expiry` is the server-side tolerance:
  /// the client is considered offline if no heartbeat lands within
  /// `expiry` of the previous deadline reset.
  void register_client(NodeId node, AppId app, Duration expiry)
      D2DHB_EXCLUDES(mutex_);

  /// Delivers one heartbeat (called by the BS/backhaul). Updates the
  /// session's deadline and records whether the heartbeat landed on time.
  void deliver(const HeartbeatMessage& message) D2DHB_EXCLUDES(mutex_);

  /// Delivers every heartbeat in a bundle.
  void deliver(const UplinkBundle& bundle) D2DHB_EXCLUDES(mutex_);

  struct SessionStats {
    std::uint64_t delivered{0};
    std::uint64_t on_time{0};
    std::uint64_t late{0};          ///< Arrived after the deadline.
    std::uint64_t offline_events{0};///< Deadline lapses observed.
    Duration total_offline{};       ///< Accumulated offline time.
    Duration total_latency{};       ///< Sum of (arrival - created_at).
    TimePoint deadline{};           ///< Current expiration deadline.
  };

  /// True if the session's deadline has not lapsed as of now.
  bool online(NodeId node, AppId app) const D2DHB_EXCLUDES(mutex_);
  /// A copy of the session's stats, taken under the lock.
  SessionStats stats(NodeId node, AppId app) const D2DHB_EXCLUDES(mutex_);

  /// Aggregates across all sessions.
  struct Totals {
    std::uint64_t delivered{0};
    std::uint64_t on_time{0};
    std::uint64_t late{0};
    std::uint64_t offline_events{0};
    Duration total_latency{};

    /// Mean end-to-end heartbeat delay (creation -> server), seconds.
    double mean_latency_s() const {
      return delivered == 0
                 ? 0.0
                 : to_seconds(total_latency) / static_cast<double>(delivered);
    }
  };
  Totals totals() const D2DHB_EXCLUDES(mutex_);

  std::size_t session_count() const D2DHB_EXCLUDES(mutex_);

 private:
  using Key = std::pair<NodeId, AppId>;
  /// One tree node per session: its stats and its server-side expiry.
  struct Session {
    SessionStats stats;
    Duration expiry;
  };

  /// A fresh session whose deadline is `expiry` from now.
  Session open_session(Duration expiry) const;

  sim::Simulator& sim_;
  mutable Mutex mutex_;
  std::map<Key, Session> sessions_ D2DHB_GUARDED_BY(mutex_);

  // Registry-backed aggregate counters (per-session detail stays in
  // sessions_; these feed the exported metrics tree).
  metrics::Counter* delivered_ctr_;
  metrics::Counter* on_time_ctr_;
  metrics::Counter* late_ctr_;
  metrics::Counter* offline_events_ctr_;
};

}  // namespace d2dhb::net

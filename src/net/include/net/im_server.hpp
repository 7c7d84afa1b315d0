// Remote IM server with per-client expiration timers.
//
// "IM servers set expiration timers to determine a client is online or
// not" (Section II-A). The server is the ground truth for whether the
// framework's added forwarding delay ever knocked a client offline —
// the correctness criterion of the scheduling algorithm.
//
// Thread-safety: uplinks are delivered on their sender's kernel, so
// kernels on different threads deliver concurrently — each into its
// own strip's session table, so nothing is locked. A session is only
// fed from its origin phone's strip (a relay and its UEs share one), so
// it lives in one lane (a Simulator auditor checks that) and sees its
// heartbeats in that kernel's (when, seq) order. Totals are summed in
// lane order: results are byte-identical across thread counts.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "common/id.hpp"
#include "common/units.hpp"
#include "metrics/registry.hpp"
#include "net/message.hpp"
#include "sim/simulator.hpp"

namespace d2dhb::net {

class ImServer {
 public:
  explicit ImServer(sim::Simulator& sim);
  ~ImServer();
  ImServer(const ImServer&) = delete;
  ImServer& operator=(const ImServer&) = delete;

  /// Registers a client session in the current strip's lane (setup code
  /// selects the phone's home strip with a sim::ShardGuard). `expiry`
  /// is the server-side tolerance: the client is considered offline if
  /// no heartbeat lands within `expiry` of the previous deadline reset.
  void register_client(NodeId node, AppId app, Duration expiry);

  /// Delivers one heartbeat (called by the BS/backhaul) into the
  /// executing strip's lane. Updates the session's deadline and records
  /// whether the heartbeat landed on time.
  void deliver(const HeartbeatMessage& message);

  /// Delivers every heartbeat in a bundle.
  void deliver(const UplinkBundle& bundle);

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
  bool online(NodeId node, AppId app) const;
  /// The session's stats; throws std::out_of_range for an unknown one.
  const SessionStats& stats(NodeId node, AppId app) const;

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
  Totals totals() const;

  std::size_t session_count() const;

 private:
  using Key = std::pair<NodeId, AppId>;
  /// One tree node per session: its stats and its server-side expiry.
  struct Session {
    SessionStats stats;
    Duration expiry;
  };

  /// A fresh session whose deadline is `expiry` from now.
  Session open_session(Duration expiry) const;
  /// The session in whichever lane holds it, or null.
  const Session* find(NodeId node, AppId app) const;
  /// Throws sim::AuditError if a session lives in more than one lane.
  void audit() const;

  sim::Simulator& sim_;
  /// One session table per strip.
  std::vector<std::map<Key, Session>> lanes_;
  std::uint64_t auditor_token_;

  // Registry-backed aggregate counters (per-session detail stays in
  // the lanes; these feed the exported metrics tree).
  metrics::Counter* delivered_ctr_;
  metrics::Counter* on_time_ctr_;
  metrics::Counter* late_ctr_;
  metrics::Counter* offline_events_ctr_;
};

}  // namespace d2dhb::net

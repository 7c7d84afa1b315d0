// Message Scheduler — Algorithm 1 of the paper.
//
// The relay delays its own heartbeat and buffers forwarded heartbeats
// from UEs, sending everything in one aggregated cellular transmission.
// A buffered message stays pending while all of Algorithm 1's conditions
// hold:
//
//     k < M          — fewer than the relay's capacity collected
//     t - t_k < T_k  — no forwarded heartbeat is about to expire
//     t < T          — the relay's own heartbeat is delayed at most one
//                      of its periods
//
// and is flushed the moment any would be violated. This is the paper's
// modified Nagle's algorithm: like Nagle, it trades bounded delay for
// fewer (cellular) transmissions; unlike Nagle, the "buffer size" is the
// per-message expiration budget rather than the MSS.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "common/id.hpp"
#include "common/units.hpp"
#include "metrics/registry.hpp"
#include "net/message.hpp"
#include "sim/simulator.hpp"

namespace d2dhb::core {

enum class FlushReason {
  capacity,    ///< k reached M.
  expiry,      ///< Some t_k + T_k deadline arrived.
  window_end,  ///< The relay's own heartbeat hit its max delay T.
  forced,      ///< flush_now() called externally (shutdown, failover).
};

const char* to_string(FlushReason reason);

class MessageScheduler {
 public:
  struct Params {
    /// M: maximum number of collected heartbeats per window. The paper
    /// offers a default "based on the experiments"; 7 matches the point
    /// where its system-level saving peaks (Fig. 9).
    std::size_t capacity{7};
    /// T: the relay's own heartbeat period — the longest its heartbeat
    /// may be delayed. (Commercial servers tolerate ~3T; the paper
    /// deliberately constrains to T, Section III-C.)
    Duration max_own_delay{seconds(270)};
    /// Safety margin subtracted from every deadline so the flush (plus
    /// the cellular promotion + burst) still lands in time.
    Duration deadline_margin{seconds(10)};
    /// If false, forwarded heartbeats are only accepted while the
    /// relay's own heartbeat is pending (the paper's strict "won't
    /// collect until the next heartbeat period"). If true, collection
    /// continues between windows with per-message expiry flushes.
    bool collect_between_windows{true};
    /// Owning relay, used as the metrics `node` label (0 = unlabeled,
    /// e.g. a scheduler driven directly in a unit test).
    NodeId node{};
  };

  /// Point-in-time snapshot of the scheduler's registry series. Returned
  /// by value from stats(); rebuild it after further simulation to see
  /// updated values.
  struct Stats {
    std::uint64_t windows{0};
    std::uint64_t collected{0};
    std::uint64_t flushed_messages{0};
    std::uint64_t rejected{0};

    /// Total flushes across all reasons.
    std::uint64_t flushes() const { return flushes_total; }
    /// Flushes attributed to one Algorithm-1 bound.
    std::uint64_t flushes(FlushReason reason) const {
      return by_reason[static_cast<std::size_t>(reason)];
    }
    /// Distribution input: messages per flush, for aggregation-factor
    /// reporting.
    double mean_bundle_size() const {
      return flushes_total == 0 ? 0.0
                                : static_cast<double>(flushed_messages) /
                                      static_cast<double>(flushes_total);
    }

    // Snapshot storage (prefer the typed accessors above).
    std::uint64_t flushes_total{0};
    std::uint64_t by_reason[4]{};
  };

  /// `on_flush` receives the buffered messages (own heartbeat first when
  /// present) every time the algorithm decides to send.
  using FlushHandler =
      std::function<void(std::vector<net::HeartbeatMessage>, FlushReason)>;

  MessageScheduler(sim::Simulator& sim, Params params, FlushHandler on_flush);
  ~MessageScheduler();
  MessageScheduler(const MessageScheduler&) = delete;
  MessageScheduler& operator=(const MessageScheduler&) = delete;

  /// The relay's own heartbeat: opens a collection window and arms the
  /// t < T bound. If a window is already open the previous own heartbeat
  /// is flushed first (periods never overlap).
  void begin_window(net::HeartbeatMessage own);

  /// A forwarded heartbeat from a UE (t_k = now). Returns false if
  /// rejected (capacity already reached mid-flush, or not collecting in
  /// strict mode); the caller should tell the UE to fall back.
  bool collect(net::HeartbeatMessage forwarded);

  /// Flush whatever is buffered immediately.
  void flush_now(FlushReason reason = FlushReason::forced);

  bool window_open() const { return own_.has_value(); }
  std::size_t buffered() const {
    return collected_.size() + (own_ ? 1 : 0);
  }
  std::size_t remaining_capacity() const;
  /// Snapshot of this scheduler's metrics (assembled from the registry).
  Stats stats() const;
  const Params& params() const { return params_; }

  /// Earliest deadline among everything buffered (for tests/monitoring).
  std::optional<TimePoint> next_deadline() const;

 private:
  void rearm();
  void flush(FlushReason reason);

  sim::Simulator& sim_;
  Params params_;
  FlushHandler on_flush_;

  std::optional<net::HeartbeatMessage> own_;
  TimePoint window_deadline_{};  ///< own created_at + T.
  std::vector<net::HeartbeatMessage> collected_;
  sim::EventId deadline_event_{};

  // Registry-backed counters (owned by the simulator's registry).
  metrics::Counter* windows_ctr_;
  metrics::Counter* collected_ctr_;
  metrics::Counter* rejected_ctr_;
  metrics::Counter* flushed_messages_ctr_;
  metrics::Counter* flush_ctrs_[4];  ///< Indexed by FlushReason.
  metrics::Histogram* bundle_size_;
};

}  // namespace d2dhb::core

// Related-work baseline strategies (Sections I & VI), implemented as one
// configurable cellular-only agent running realistic mixed traffic
// (heartbeats + chat data):
//
//   * original          — send everything immediately (the paper's
//                         "system without any modification").
//   * period extension  — stretch the heartbeat period by a factor [2];
//                         fewer transmissions, worse offline detection.
//   * piggybacking      — delay heartbeats up to their expiration hoping
//                         a data transfer comes along to share the RRC
//                         connection [2].
//   * fast dormancy     — release the RRC connection right after every
//                         burst [26]; saves tail energy, adds signaling.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "apps/app_profile.hpp"
#include "apps/traffic_mix.hpp"
#include "core/phone.hpp"
#include "metrics/registry.hpp"
#include "radio/base_station.hpp"

namespace d2dhb::core {

class CellularBaselineAgent {
 public:
  struct Params {
    apps::AppProfile app{apps::standard_app()};
    /// Heartbeat period multiplier (the period-extension strategy).
    double period_factor{1.0};
    /// Delay heartbeats to ride on data transmissions.
    bool piggyback{false};
    /// Safety margin before a delayed heartbeat's expiration at which it
    /// is sent alone after all.
    Duration piggyback_margin{seconds(15)};
    /// Device-initiated RRC release after each burst.
    bool fast_dormancy{false};
    /// Generate Poisson chat data alongside heartbeats (per the app's
    /// Table I heartbeat share). Without data, piggybacking degenerates
    /// to pure delay.
    bool with_data_traffic{true};
  };

  /// Point-in-time snapshot of the agent's registry series.
  struct Stats {
    std::uint64_t heartbeats{0};
    std::uint64_t data_sends{0};
    std::uint64_t piggybacked{0};   ///< Heartbeats that rode a data send.
    std::uint64_t sent_alone{0};    ///< Heartbeats that hit their margin.
  };

  CellularBaselineAgent(sim::Simulator& sim, Phone& phone, Params params,
                        radio::BaseStation& bs, Rng rng);
  ~CellularBaselineAgent();
  CellularBaselineAgent(const CellularBaselineAgent&) = delete;
  CellularBaselineAgent& operator=(const CellularBaselineAgent&) = delete;

  void start();
  void stop();

  Phone& phone() { return phone_; }
  /// Snapshot of this agent's metrics (assembled from the registry).
  Stats stats() const;
  /// The effective (possibly extended) heartbeat period.
  Duration heartbeat_period() const {
    return effective_profile_.heartbeat_period;
  }

 private:
  void on_traffic(apps::MixedTrafficGenerator::Kind kind, Bytes size);
  void send_heartbeats_now(Bytes data_payload);
  void arm_pending_deadline();

  sim::Simulator& sim_;
  Phone& phone_;
  Params params_;
  radio::BaseStation& bs_;
  apps::AppProfile effective_profile_;
  apps::MixedTrafficGenerator traffic_;
  std::vector<net::HeartbeatMessage> pending_;
  sim::EventId pending_deadline_{};
  std::uint64_t seq_{0};

  // Registry-backed counters (owned by the simulator's registry).
  metrics::Counter* heartbeats_ctr_;
  metrics::Counter* data_sends_ctr_;
  metrics::Counter* piggybacked_ctr_;
  metrics::Counter* sent_alone_ctr_;
};

}  // namespace d2dhb::core

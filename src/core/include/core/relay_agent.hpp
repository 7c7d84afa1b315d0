// Relay role (Section III): advertises itself over Wi-Fi Direct, collects
// forwarded heartbeats from connected UEs, schedules them with the
// Message Scheduler, transmits the aggregate over one cellular
// connection, and acks each UE once the aggregate reached the BS.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "apps/heartbeat_app.hpp"
#include "common/arena.hpp"
#include "core/incentive.hpp"
#include "core/phone.hpp"
#include "core/scheduler.hpp"
#include "energy/battery.hpp"
#include "radio/base_station.hpp"

namespace d2dhb::core {

class RelayAgent {
 public:
  struct Params {
    MessageScheduler::Params scheduler{};
    apps::AppProfile own_app{apps::standard_app()};
    /// Relays that run no IM app of their own never open windows; they
    /// still aggregate forwarded heartbeats on expiry deadlines.
    bool run_own_heartbeats{true};
    /// Battery-aware capacity (Section III-C: relays "adjust the value
    /// according their situations, such as their battery usage").
    /// 0 = unlimited power (no battery modeled). When set, the
    /// advertised capacity scales with the remaining battery fraction
    /// and the relay retires at 10 % battery.
    MicroAmpHours battery_capacity{0.0};
    Duration battery_poll_interval{seconds(30)};
  };

  /// Point-in-time snapshot of the relay's registry series.
  struct Stats {
    std::uint64_t own_heartbeats{0};
    std::uint64_t forwarded_received{0};
    std::uint64_t forwarded_rejected{0};
    std::uint64_t bundles_sent{0};
    std::uint64_t heartbeats_uplinked{0};
    std::uint64_t feedback_acks_sent{0};
  };

  /// `arena` pools extra own-apps (a Scenario passes the phone's strip
  /// arena); nullptr = private per-agent heap fallback.
  RelayAgent(sim::Simulator& sim, Phone& phone, Params params,
             radio::BaseStation& bs, IncentiveLedger* ledger = nullptr,
             Arena* arena = nullptr);

  /// Installs another IM app on the relay phone itself. The primary app
  /// drives the scheduler's collection window (its period is T); extra
  /// apps' heartbeats ride the aggregates under their own expiration
  /// deadlines, like forwarded messages do.
  apps::HeartbeatApp& add_own_app(apps::AppProfile profile);

  /// Starts the relay service (advertising + own heartbeats).
  void start(Duration heartbeat_offset = Duration::zero());
  void stop();

  Phone& phone() { return phone_; }
  MessageScheduler& scheduler() { return scheduler_; }
  const MessageScheduler& scheduler() const { return scheduler_; }
  apps::HeartbeatApp& own_app() { return own_app_; }
  /// Snapshot of this relay's metrics (assembled from the registry).
  Stats stats() const;
  bool running() const { return running_; }
  /// Battery level in [0, 1]; 1.0 when no battery is modeled.
  double battery_level();
  bool retired() const { return retired_; }

 private:
  void on_own_heartbeat(const net::HeartbeatMessage& message);
  void on_d2d_receive(const net::D2dPayload& payload);
  void on_flush(std::vector<net::HeartbeatMessage> batch);
  void on_uplink_complete(const net::UplinkBundle& bundle);
  void refresh_advert();
  void poll_battery();
  void retire();

  sim::Simulator& sim_;
  Phone& phone_;
  radio::BaseStation& bs_;
  IncentiveLedger* ledger_;
  MessageScheduler scheduler_;
  apps::HeartbeatApp own_app_;
  /// Where extra own-apps live (borrowed strip arena or a private
  /// heap-mode one); the arena owns their lifetimes.
  ArenaHandle arena_;
  std::vector<apps::HeartbeatApp*> extra_apps_;
  std::optional<energy::Battery> battery_;
  std::optional<sim::PeriodicTimer> battery_poll_;
  /// The one Params field read after construction.
  bool run_own_heartbeats_;
  bool running_{false};
  bool retired_{false};

  // Registry-backed counters (owned by the simulator's registry).
  metrics::Counter* own_heartbeats_ctr_;
  metrics::Counter* forwarded_received_ctr_;
  metrics::Counter* forwarded_rejected_ctr_;
  metrics::Counter* bundles_sent_ctr_;
  metrics::Counter* heartbeats_uplinked_ctr_;
  metrics::Counter* feedback_acks_sent_ctr_;
};

}  // namespace d2dhb::core

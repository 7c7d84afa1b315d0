// UE role (Section III): when a heartbeat is due, discover nearby
// relays, pre-judge and match the nearest suitable one, forward the
// heartbeat over Wi-Fi Direct, and await the relay's feedback — falling
// back to direct cellular transmission whenever anything goes wrong.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "apps/heartbeat_app.hpp"
#include "core/detector.hpp"
#include "core/feedback.hpp"
#include "core/message_monitor.hpp"
#include "core/phone.hpp"
#include "radio/base_station.hpp"

namespace d2dhb::core {

class UeAgent {
 public:
  struct Params {
    apps::AppProfile app{apps::standard_app()};
    MatchPolicy match{};
    /// How long the UE waits for the relay's feedback before
    /// retransmitting over cellular.
    Duration feedback_timeout{seconds(60)};
    /// After a failed discovery/connection the UE sends via cellular and
    /// doesn't retry D2D until this much time passes. Consecutive
    /// failures double it, up to 30 minutes (a UE parked outside relay
    /// coverage must not burn its battery scanning).
    Duration retry_backoff{seconds(120)};
    /// Optional relay re-assessment: every interval, a connected UE
    /// re-scans and switches to a relay markedly closer than its
    /// current one (a moving UE should not cling to the relay it met
    /// first). Zero disables re-assessment.
    Duration reassess_interval{Duration::zero()};
  };

  /// Point-in-time snapshot of the UE's registry series.
  struct Stats {
    std::uint64_t heartbeats{0};
    std::uint64_t sent_via_d2d{0};
    std::uint64_t sent_via_cellular{0};  ///< No relay available.
    std::uint64_t fallback_cellular{0};  ///< D2D failed after the fact.
    std::uint64_t discoveries{0};
    std::uint64_t matches{0};
    std::uint64_t connects{0};
    std::uint64_t connect_failures{0};
    std::uint64_t link_losses{0};
    std::uint64_t reassessments{0};
    std::uint64_t handovers{0};
  };

  enum class LinkState { idle, discovering, connecting, connected };

  /// `arena` pools the UE's heartbeat apps (a Scenario passes the
  /// phone's strip arena); nullptr = private per-agent heap fallback.
  UeAgent(sim::Simulator& sim, Phone& phone, Params params,
          radio::BaseStation& bs, Arena* arena = nullptr);

  /// Installs another IM app on this phone (phones typically run
  /// several — Table I). All apps share the same relay link; the
  /// scheduler on the relay side handles their differing periods and
  /// expiration times.
  apps::HeartbeatApp& add_app(apps::AppProfile profile);

  void start(Duration heartbeat_offset = Duration::zero());
  void stop();

  Phone& phone() { return phone_; }
  /// The Message Monitor intercepting this phone's app heartbeats.
  MessageMonitor& monitor() { return monitor_; }
  /// The primary app (first installed).
  apps::HeartbeatApp& app() { return *monitor_.apps().front(); }
  std::vector<apps::HeartbeatApp*>& apps() { return monitor_.apps(); }
  LinkState link_state() const { return state_; }
  NodeId current_relay() const { return relay_; }
  /// Snapshot of this UE's metrics (assembled from the registry).
  Stats stats() const;
  const FeedbackTracker& feedback() const { return feedback_; }

 private:
  void on_heartbeat(const net::HeartbeatMessage& message);
  void on_d2d_receive(const net::D2dPayload& payload, NodeId from);
  void on_link_lost(NodeId peer);
  void begin_discovery();
  void on_discovery(const std::vector<d2d::DiscoveredPeer>& peers);
  /// Pairs with `relay`; on success drains the queue over D2D.
  void connect_to(NodeId relay, bool handover);
  void send_via_d2d(const net::HeartbeatMessage& message);
  void send_via_cellular(const net::HeartbeatMessage& message,
                         bool is_fallback);
  void drain_queue_to_cellular();
  void fail_d2d_attempt();
  void reassess();

  sim::Simulator& sim_;
  Phone& phone_;
  /// The Params fields read after construction.
  MatchPolicy match_;
  Duration retry_backoff_;
  radio::BaseStation& bs_;
  FeedbackTracker feedback_;
  MessageMonitor monitor_;

  LinkState state_{LinkState::idle};
  NodeId relay_{};
  NodeId handover_target_{};
  std::optional<sim::PeriodicTimer> reassess_timer_;
  TimePoint backoff_until_{};
  Duration current_backoff_{};
  std::vector<net::HeartbeatMessage> awaiting_link_;
  bool running_{false};

  // Registry-backed counters (owned by the simulator's registry).
  metrics::Counter* heartbeats_ctr_;
  metrics::Counter* sent_via_d2d_ctr_;
  metrics::Counter* sent_via_cellular_ctr_;
  metrics::Counter* fallback_cellular_ctr_;
  metrics::Counter* discoveries_ctr_;
  metrics::Counter* matches_ctr_;
  metrics::Counter* connects_ctr_;
  metrics::Counter* connect_failures_ctr_;
  metrics::Counter* link_losses_ctr_;
  metrics::Counter* reassessments_ctr_;
  metrics::Counter* handovers_ctr_;
};

}  // namespace d2dhb::core

// Per-node Wi-Fi Direct radio.
//
// Models the Android WifiP2pManager surface the prototype is built on
// (Section IV-C): discovery scans, group-owner negotiation driven by
// groupOwnerIntent (0-15), connection setup, message transfer, and
// link-break detection when peers move out of range. Every phase charges
// the node's EnergyMeter per the calibrated D2dEnergyProfile.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/id.hpp"
#include "common/result.hpp"
#include "common/units.hpp"
#include "d2d/energy_profile.hpp"
#include "d2d/medium.hpp"
#include "energy/energy_meter.hpp"
#include "metrics/registry.hpp"
#include "net/message.hpp"
#include "sim/simulator.hpp"

namespace d2dhb::d2d {

/// Maximum value of Android's groupOwnerIntent.
inline constexpr int kMaxGroupOwnerIntent = 15;

class WifiDirectRadio {
 public:
  using DiscoveryCallback =
      std::function<void(const std::vector<DiscoveredPeer>&)>;
  using ConnectCallback = std::function<void(Result<GroupId>)>;
  using ReceiveHandler =
      std::function<void(const net::D2dPayload&, NodeId from)>;
  using DisconnectHandler = std::function<void(NodeId peer)>;

  WifiDirectRadio(sim::Simulator& sim, NodeId owner, WifiDirectMedium& medium,
                  const mobility::MobilityModel& mobility,
                  energy::EnergyMeter& meter, D2dEnergyProfilePtr profile);
  ~WifiDirectRadio();
  WifiDirectRadio(const WifiDirectRadio&) = delete;
  WifiDirectRadio& operator=(const WifiDirectRadio&) = delete;

  NodeId owner() const { return owner_; }

  /// Relay-side advertisement. Discoverable radios appear in peers' scans.
  void set_advert(RelayAdvert advert) { advert_ = advert; }
  const RelayAdvert& advert() const { return advert_; }

  /// groupOwnerIntent for GO negotiation; relays start at 15, UEs at 0
  /// (Section IV-C).
  void set_group_owner_intent(int intent);
  int group_owner_intent() const { return intent_; }

  /// Active scan: one medium scan as the window opens, paid for by this
  /// radio and by every listening peer that answered (once per response
  /// window). As it closes, the callback gets those answers minus peers
  /// that detached, stopped listening or left range, adverts re-read.
  void start_discovery(DiscoveryCallback callback);

  /// Whether this radio answers scans: only listening radios appear in
  /// peers' scans (and charge passive-discovery energy when scanned).
  /// Relays listen; pure clients do not. The flag also decides
  /// membership in the medium's discovery index, so every change is
  /// reported to the medium.
  void set_listening(bool listening);
  bool listening() const { return listening_; }

  /// GO negotiation + provisioning with `peer`. Charges connection
  /// energy on both ends; fails if out of range. The side with higher
  /// groupOwnerIntent becomes group owner.
  void connect(NodeId peer, ConnectCallback callback);

  /// Tears down the link with `peer` (both ends notified).
  void disconnect(NodeId peer);

  /// Tears down every link (device shutdown / battery death).
  void disconnect_all();

  /// Sends one D2D frame (heartbeat or feedback ack) to a connected
  /// peer. Charges send energy here (distance-dependent for heartbeats;
  /// an ack is a flat control frame) and receive energy there; the
  /// peer's receive handler gets it after the transfer latency. Returns
  /// `disconnected` at once if there is no link, or if the peer is gone
  /// or out of range (that link is broken first). A link that dies
  /// during the transfer is broken on arrival and reported through both
  /// ends' disconnect handlers; nothing is delivered. Throws
  /// std::logic_error if the peer is homed on another kernel.
  Status send(NodeId peer, net::D2dPayload payload);

  void set_receive_handler(ReceiveHandler handler) {
    on_receive_ = std::move(handler);
  }
  void set_disconnect_handler(DisconnectHandler handler) {
    on_disconnect_ = std::move(handler);
  }

  bool connected_to(NodeId peer) const { return find_link(peer) != nullptr; }
  std::size_t link_count() const { return links_.size(); }
  /// Group this radio belongs to (invalid if no links).
  GroupId group() const { return group_; }
  bool is_group_owner() const { return group_owner_; }
  /// Whether the 1 Hz range-exit monitor is armed: only while some link
  /// could break on its own (one endpoint moves, or the peer is gone).
  bool link_monitor_armed() const { return link_monitor_.running(); }

  const mobility::MobilityModel& mobility() const { return mobility_; }
  const WifiDirectMedium& medium() const { return medium_; }
  const D2dEnergyProfile& profile() const { return *profile_; }
  MicroAmpHours radio_charge() { return meter_.component_charge(component_); }

  /// Called by the medium/peer internals — not public API.
  struct Internal;

 private:
  friend class WifiDirectMedium;
  friend struct Internal;

  /// One active D2D link. Links live in a NodeId-sorted vector (a group
  /// owner caps out at max_group_clients ≈ 8 entries, so a dense sorted
  /// array beats hashing) — iteration order is the deterministic NodeId
  /// order, so teardown sweeps never depend on hash-bucket layout.
  struct Link {
    NodeId peer;
    GroupId group;
  };

  void charge_phase(const PhaseShape& shape, MicroAmpHours target);
  void update_idle_current();
  /// Whether a link could break on its own: one endpoint moves, or the
  /// peer radio is gone (its back-link waits for a monitor tick).
  bool links_can_break() const;
  /// Arms the 1 Hz link monitor exactly while links_can_break().
  void update_link_monitor();
  const Link* find_link(NodeId peer) const;
  void establish_link(NodeId peer, GroupId group, bool as_owner);
  void break_link(NodeId peer, bool notify_peer);
  void poll_links();
  void deliver(const net::D2dPayload& payload, NodeId from);

  sim::Simulator& sim_;
  NodeId owner_;
  WifiDirectMedium& medium_;
  const mobility::MobilityModel& mobility_;
  energy::EnergyMeter& meter_;
  energy::ComponentHandle component_;
  D2dEnergyProfilePtr profile_;  ///< Shared, never null.

  RelayAdvert advert_{};
  int intent_{0};
  bool listening_{false};
  bool idle_current_on_{false};
  /// End of the current passive-discovery response window. Concurrent
  /// scans by several peers share one window — the radio is awake
  /// either way — so passive energy is charged at most once per window.
  TimePoint passive_window_end_{};

  std::vector<Link> links_;  ///< Sorted by peer NodeId ascending.
  GroupId group_{};
  bool group_owner_{false};

  /// Range-exit poll. Only armed while links_can_break(): a link
  /// between two static endpoints can never drift out of range.
  sim::PeriodicTimer link_monitor_;
  ReceiveHandler on_receive_;
  DisconnectHandler on_disconnect_;

  // Registry-backed counters (owned by the simulator's registry).
  metrics::Counter* discovery_scans_ctr_;
  metrics::Counter* links_established_ctr_;
  metrics::Counter* links_broken_ctr_;
  metrics::Counter* sends_ctr_;
  metrics::Counter* transfer_bytes_ctr_;
};

}  // namespace d2dhb::d2d

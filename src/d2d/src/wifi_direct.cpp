#include "d2d/wifi_direct.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

#include "common/log.hpp"
#include "common/tracelog.hpp"

namespace d2dhb::d2d {

WifiDirectRadio::WifiDirectRadio(sim::Simulator& sim, NodeId owner,
                                 WifiDirectMedium& medium,
                                 const mobility::MobilityModel& mobility,
                                 energy::EnergyMeter& meter,
                                 D2dEnergyProfile profile, Rng rng)
    : sim_(sim),
      owner_(owner),
      medium_(medium),
      mobility_(mobility),
      meter_(meter),
      component_(meter.register_component("wifi_direct")),
      profile_(profile),
      rng_(rng),
      link_monitor_(sim, seconds(1), [this] { poll_links(); }) {
  medium_.attach(*this, mobility_);
  auto& reg = sim_.metrics();
  const metrics::Labels labels{owner_.value, -1, "wifi_direct"};
  discovery_scans_ctr_ = &reg.counter("d2d.discovery_scans", labels);
  links_established_ctr_ = &reg.counter("d2d.links_established", labels);
  links_broken_ctr_ = &reg.counter("d2d.links_broken", labels);
  sends_ctr_ = &reg.counter("d2d.sends", labels);
  transfer_bytes_ctr_ = &reg.counter("d2d.transfer_bytes", labels);
  reg.gauge_fn("energy.wifi_direct_uah", labels,
               [this] { return radio_charge().value; });
}

WifiDirectRadio::~WifiDirectRadio() {
  // Tear down links without touching possibly-dead peers' callbacks.
  links_.clear();
  medium_.detach(owner_);
}

void WifiDirectRadio::set_group_owner_intent(int intent) {
  intent_ = std::clamp(intent, 0, kMaxGroupOwnerIntent);
}

void WifiDirectRadio::charge_phase(const PhaseShape& shape,
                                   MicroAmpHours target) {
  apply_phase(sim_, meter_, component_, shape, target);
}

void WifiDirectRadio::update_idle_current() {
  const bool should_be_on = !links_.empty();
  if (should_be_on == idle_current_on_) return;
  idle_current_on_ = should_be_on;
  const MilliAmps base = meter_.component_current(component_);
  meter_.set_current(component_, should_be_on
                                     ? base + profile_.idle_connected
                                     : base - profile_.idle_connected);
}

void WifiDirectRadio::start_discovery(DiscoveryCallback callback) {
  discovery_scans_ctr_->inc();
  charge_phase(D2dEnergyProfile::discovery_shape(), profile_.ue_discovery);
  // Listening peers spend passive-discovery energy responding to probes
  // — once per response window, no matter how many peers scan at once.
  for (const auto& peer : medium_.scan_from(owner_)) {
    if (WifiDirectRadio* r = medium_.radio(peer.node)) {
      if (sim_.now() >= r->passive_window_end_) {
        r->passive_window_end_ = sim_.now() + r->profile_.discovery_scan;
        r->charge_phase(D2dEnergyProfile::discovery_shape(),
                        r->profile_.relay_discovery);
      }
    }
  }
  sim_.schedule_after(profile_.discovery_scan,
                      [this, callback = std::move(callback)] {
                        // Re-scan at completion: peers may have moved
                        // during the window.
                        callback(medium_.scan_from(owner_));
                      });
}

void WifiDirectRadio::connect(NodeId peer, ConnectCallback callback) {
  if (peer == owner_) {
    callback(Result<GroupId>{Errc::rejected, "cannot connect to self"});
    return;
  }
  WifiDirectRadio* other = medium_.radio(peer);
  if (other == nullptr) {
    callback(Result<GroupId>{Errc::not_found, "peer not on medium"});
    return;
  }
  if (const Link* link = find_link(peer)) {
    callback(Result<GroupId>{link->group});
    return;
  }
  if (!medium_.in_range(owner_, peer)) {
    callback(Result<GroupId>{Errc::out_of_range, "peer beyond D2D range"});
    return;
  }
  // Both ends burn connection energy during negotiation + provisioning.
  charge_phase(D2dEnergyProfile::connection_shape(), profile_.ue_connection);
  other->charge_phase(D2dEnergyProfile::connection_shape(),
                      other->profile_.relay_connection);

  sim_.schedule_after(
      profile_.connection_setup,
      [this, peer, callback = std::move(callback)] {
        WifiDirectRadio* other = medium_.radio(peer);
        if (other == nullptr || !medium_.in_range(owner_, peer)) {
          callback(Result<GroupId>{Errc::out_of_range,
                                   "peer moved away during setup"});
          return;
        }
        // GO negotiation: higher groupOwnerIntent wins; tie broken by
        // node id (Android breaks ties with a random bit).
        const bool peer_is_owner =
            other->intent_ > intent_ ||
            (other->intent_ == intent_ && peer.value < owner_.value);
        // Group owners have a client cap.
        WifiDirectRadio* owner_side = peer_is_owner ? other : this;
        if (owner_side->link_count() >=
            medium_.params().max_group_clients) {
          callback(Result<GroupId>{Errc::capacity_exceeded,
                                   "group owner is full"});
          return;
        }
        GroupId group;
        if (peer_is_owner && other->group_.valid() && other->group_owner_) {
          group = other->group_;  // join the owner's existing group
        } else if (!peer_is_owner && group_.valid() && group_owner_) {
          group = group_;
        } else {
          // Both ends share a strip (in_range enforces confinement), so
          // either id names the same lane.
          group = medium_.allocate_group(owner_);
        }
        establish_link(peer, group, !peer_is_owner);
        other->establish_link(owner_, group, peer_is_owner);
        D2DHB_LOG(debug) << "d2d link " << owner_.value << " <-> "
                         << peer.value << " group " << group.value;
        callback(Result<GroupId>{group});
      });
}

const WifiDirectRadio::Link* WifiDirectRadio::find_link(NodeId peer) const {
  const auto it = std::lower_bound(
      links_.begin(), links_.end(), peer,
      [](const Link& l, NodeId p) { return l.peer < p; });
  return (it != links_.end() && it->peer == peer) ? &*it : nullptr;
}

void WifiDirectRadio::establish_link(NodeId peer, GroupId group,
                                     bool as_owner) {
  trace(sim_.now(), TraceCategory::d2d, owner_,
        "link up with #" + std::to_string(peer.value) + " (group " +
            std::to_string(group.value) +
            (as_owner ? ", owner)" : ", client)"));
  const auto it = std::lower_bound(
      links_.begin(), links_.end(), peer,
      [](const Link& l, NodeId p) { return l.peer < p; });
  if (it != links_.end() && it->peer == peer) {
    it->group = group;
  } else {
    links_.insert(it, Link{peer, group});
  }
  links_established_ctr_->inc();
  group_ = group;
  group_owner_ = as_owner;
  update_idle_current();
  if (!link_monitor_.running()) link_monitor_.start();
}

void WifiDirectRadio::break_link(NodeId peer, bool notify_peer) {
  const auto it = std::lower_bound(
      links_.begin(), links_.end(), peer,
      [](const Link& l, NodeId p) { return l.peer < p; });
  if (it == links_.end() || it->peer != peer) return;
  trace(sim_.now(), TraceCategory::d2d, owner_,
        "link down with #" + std::to_string(peer.value));
  links_.erase(it);
  links_broken_ctr_->inc();
  if (links_.empty()) {
    group_ = GroupId{};
    group_owner_ = false;
    link_monitor_.stop();
  }
  update_idle_current();
  if (notify_peer) {
    if (WifiDirectRadio* other = medium_.radio(peer)) {
      other->break_link(owner_, false);
      if (other->on_disconnect_) other->on_disconnect_(owner_);
    }
  }
  if (on_disconnect_) on_disconnect_(peer);
}

void WifiDirectRadio::disconnect(NodeId peer) { break_link(peer, true); }

void WifiDirectRadio::disconnect_all() {
  // links_ is NodeId-sorted, so teardown notifications fire in
  // deterministic peer order (snapshot first: break_link mutates links_).
  std::vector<NodeId> peers;
  peers.reserve(links_.size());
  for (const Link& link : links_) peers.push_back(link.peer);
  for (const NodeId peer : peers) break_link(peer, true);
}

void WifiDirectRadio::poll_links() {
  // One O(links) sweep; links_ is already NodeId-sorted, so breaks
  // happen in deterministic peer order.
  std::vector<NodeId> peers;
  peers.reserve(links_.size());
  for (const Link& link : links_) peers.push_back(link.peer);
  for (const NodeId peer : medium_.lost_peers(owner_, peers)) {
    break_link(peer, true);
  }
}

void WifiDirectRadio::send(NodeId peer, net::D2dPayload payload,
                           SendCallback callback) {
  if (!connected_to(peer)) {
    callback(Status{Errc::disconnected, "no link to peer"});
    return;
  }
  WifiDirectRadio* other = medium_.radio(peer);
  if (other == nullptr || !medium_.in_range(owner_, peer)) {
    break_link(peer, true);
    callback(Status{Errc::disconnected, "peer out of range"});
    return;
  }
  // The transfer completes on this kernel. D2D links never leave a
  // strip, so the peer always lives here too; a peer homed on another
  // kernel would couple two kernels — refuse it loudly.
  if (medium_.nodes().shard_of(peer) != sim_.current_shard()) {
    throw std::logic_error("WifiDirectRadio::send: peer " +
                           std::to_string(peer.value) +
                           " is homed on another kernel");
  }
  sends_ctr_->inc();
  if (const auto* hb = std::get_if<net::HeartbeatMessage>(&payload)) {
    transfer_bytes_ctr_->inc(hb->size.value);
    const Meters d = medium_.distance(owner_, peer);
    charge_phase(D2dEnergyProfile::send_shape(),
                 profile_.send_charge(hb->size, d));
    other->charge_phase(D2dEnergyProfile::receive_shape(),
                        other->profile_.receive_charge(hb->size));
  } else {
    // Control frame: flat small cost on both ends.
    meter_.add_load(component_,
                    MilliAmps{profile_.control_send.value * 3.6 / 0.2},
                    milliseconds(200));
    other->meter_.add_load(
        other->component_,
        MilliAmps{other->profile_.control_receive.value * 3.6 / 0.2},
        milliseconds(200));
  }
  // Fire-and-forget: in-flight transfers are never cancelled, only
  // re-checked for liveness on arrival.
  sim_.schedule_after(
      profile_.transfer_latency,
      [this, peer, payload = std::move(payload),
       callback = std::move(callback)] {
        WifiDirectRadio* other = medium_.radio(peer);
        if (other == nullptr || !connected_to(peer) ||
            !medium_.in_range(owner_, peer)) {
          // Link died mid-transfer.
          break_link(peer, true);
          callback(Status{Errc::disconnected, "link lost during transfer"});
          return;
        }
        other->deliver(payload, owner_);
        callback(Status::success());
      });
}

void WifiDirectRadio::deliver(const net::D2dPayload& payload, NodeId from) {
  if (on_receive_) on_receive_(payload, from);
}

}  // namespace d2dhb::d2d

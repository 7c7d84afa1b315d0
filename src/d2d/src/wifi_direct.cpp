#include "d2d/wifi_direct.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

namespace d2dhb::d2d {

WifiDirectRadio::WifiDirectRadio(sim::Simulator& sim, NodeId owner,
                                 WifiDirectMedium& medium,
                                 const mobility::MobilityModel& mobility,
                                 energy::EnergyMeter& meter,
                                 D2dEnergyProfilePtr profile)
    : sim_(sim),
      owner_(owner),
      medium_(medium),
      mobility_(mobility),
      meter_(meter),
      component_(meter.register_component("wifi_direct")),
      profile_(profile != nullptr
                   ? std::move(profile)
                   : throw std::invalid_argument(
                         "WifiDirectRadio: energy profile is required")),
      link_monitor_(sim, seconds(1), [this] { poll_links(); }) {
  medium_.attach(*this);
  auto& reg = sim_.metrics();
  const metrics::Labels labels{owner_.value, -1, "wifi_direct"};
  discovery_scans_ctr_ = &reg.counter("d2d.discovery_scans", labels);
  links_established_ctr_ = &reg.counter("d2d.links_established", labels);
  links_broken_ctr_ = &reg.counter("d2d.links_broken", labels);
  sends_ctr_ = &reg.counter("d2d.sends", labels);
  transfer_bytes_ctr_ = &reg.counter("d2d.transfer_bytes", labels);
  reg.gauge_fn("energy.wifi_direct_uah", labels, *this,
               [](WifiDirectRadio& r) { return r.radio_charge().value; });
}

WifiDirectRadio::~WifiDirectRadio() {
  // Tear down links without touching possibly-dead peers' callbacks.
  const std::vector<Link> links = std::move(links_);
  links_.clear();
  // A radio that a re-attach replaced no longer speaks for its node.
  if (medium_.radio(owner_) == this) medium_.detach(owner_);
  // A survivor whose link to this radio was static has no monitor
  // armed. Arm it: its next tick finds this radio gone and breaks the
  // dangling back-link, handlers and all, outside this destructor.
  for (const Link& link : links) {
    if (WifiDirectRadio* survivor = medium_.radio(link.peer)) {
      const sim::ShardGuard home(sim_, medium_.nodes().shard_of(link.peer));
      survivor->update_link_monitor();
    }
  }
}

void WifiDirectRadio::set_listening(bool listening) {
  if (listening == listening_) return;
  listening_ = listening;
  medium_.listening_changed(*this);
}

void WifiDirectRadio::set_group_owner_intent(int intent) {
  intent_ = std::clamp(intent, 0, kMaxGroupOwnerIntent);
}

void WifiDirectRadio::charge_phase(const PhaseShape& shape,
                                   MicroAmpHours target) {
  apply_phase(meter_, component_, shape, target);
}

void WifiDirectRadio::update_idle_current() {
  const bool should_be_on = !links_.empty();
  if (should_be_on == idle_current_on_) return;
  idle_current_on_ = should_be_on;
  meter_.add_current(component_,
                     should_be_on ? profile_->idle_connected
                                  : MilliAmps{-profile_->idle_connected.value});
}

bool WifiDirectRadio::links_can_break() const {
  if (links_.empty()) return false;
  if (!mobility_.is_static()) return true;
  for (const Link& link : links_) {
    const WifiDirectRadio* peer = medium_.radio(link.peer);
    if (peer == nullptr || !peer->mobility_.is_static()) return true;
  }
  return false;
}

void WifiDirectRadio::update_link_monitor() {
  const bool needed = links_can_break();
  if (needed == link_monitor_.running()) return;
  if (needed) {
    link_monitor_.start();
  } else {
    link_monitor_.stop();
  }
}

void WifiDirectRadio::start_discovery(DiscoveryCallback callback) {
  discovery_scans_ctr_->inc();
  charge_phase(D2dEnergyProfile::discovery_shape(), profile_->ue_discovery);
  std::vector<DiscoveredPeer> peers = medium_.scan_from(owner_);
  // The listening peers that answered spend passive-discovery energy
  // responding to probes — once per response window, no matter how
  // many peers scan at once.
  for (const DiscoveredPeer& peer : peers) {
    WifiDirectRadio* r = medium_.radio(peer.node);
    if (sim_.now() >= r->passive_window_end_) {
      r->passive_window_end_ = sim_.now() + r->profile_->discovery_scan;
      r->charge_phase(D2dEnergyProfile::discovery_shape(),
                      r->profile_->relay_discovery);
    }
  }
  sim_.schedule_after(
      profile_->discovery_scan,
      [this, peers = std::move(peers), callback = std::move(callback)]() mutable {
        // The UE chooses among the answers it paid for. Drop peers that
        // detached, moved out of range or stopped listening during the
        // window, and read the others' adverts as they stand now.
        std::erase_if(peers, [this](const DiscoveredPeer& peer) {
          return !medium_.in_range(owner_, peer.node) ||
                 !medium_.radio(peer.node)->listening();
        });
        for (DiscoveredPeer& peer : peers) {
          peer.advert = medium_.radio(peer.node)->advert();
        }
        callback(peers);
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
  charge_phase(D2dEnergyProfile::connection_shape(), profile_->ue_connection);
  other->charge_phase(D2dEnergyProfile::connection_shape(),
                      other->profile_->relay_connection);

  sim_.schedule_after(
      profile_->connection_setup,
      [this, peer, callback = std::move(callback)] {
        if (!medium_.in_range(owner_, peer)) {
          callback(Result<GroupId>{Errc::out_of_range,
                                   "peer moved away during setup"});
          return;
        }
        WifiDirectRadio* other = medium_.radio(peer);
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
        // A group is named by its owner: joining an owner's existing
        // group and forming a fresh one give the same id.
        const GroupId group{owner_side->owner_.value};
        establish_link(peer, group, !peer_is_owner);
        other->establish_link(owner_, group, peer_is_owner);
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
  update_link_monitor();
}

void WifiDirectRadio::break_link(NodeId peer, bool notify_peer) {
  const auto it = std::lower_bound(
      links_.begin(), links_.end(), peer,
      [](const Link& l, NodeId p) { return l.peer < p; });
  if (it == links_.end() || it->peer != peer) return;
  links_.erase(it);
  links_broken_ctr_->inc();
  if (links_.empty()) {
    group_ = GroupId{};
    group_owner_ = false;
  }
  update_idle_current();
  update_link_monitor();
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
  // links_ is NodeId-sorted and break_link erases the link it breaks,
  // so teardown notifications fire in deterministic peer order.
  while (!links_.empty()) break_link(links_.front().peer, true);
}

void WifiDirectRadio::poll_links() {
  // One O(links) sweep of exact range checks (links are capped at
  // max_group_clients, so this beats a radius query); links_ is
  // NodeId-sorted, so breaks happen in deterministic peer order.
  std::vector<NodeId> lost;
  for (const Link& link : links_) {
    if (!medium_.in_range(owner_, link.peer)) lost.push_back(link.peer);
  }
  for (const NodeId peer : lost) break_link(peer, true);
}

Status WifiDirectRadio::send(NodeId peer, net::D2dPayload payload) {
  if (!connected_to(peer)) {
    return Status{Errc::disconnected, "no link to peer"};
  }
  WifiDirectRadio* other = medium_.radio(peer);
  if (other == nullptr || !medium_.in_range(owner_, peer)) {
    break_link(peer, true);
    return Status{Errc::disconnected, "peer out of range"};
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
                 profile_->send_charge(hb->size, d));
    other->charge_phase(D2dEnergyProfile::receive_shape(),
                        other->profile_->receive_charge(hb->size));
  } else {
    // Control frame: flat small cost on both ends.
    meter_.add_load(component_,
                    MilliAmps{profile_->control_send.value * 3.6 / 0.2},
                    milliseconds(200));
    other->meter_.add_load(
        other->component_,
        MilliAmps{other->profile_->control_receive.value * 3.6 / 0.2},
        milliseconds(200));
  }
  // Fire-and-forget: in-flight transfers are never cancelled, only
  // re-checked for liveness on arrival. A link that died mid-transfer
  // is broken here, which tells both ends' disconnect handlers.
  sim_.schedule_after(
      profile_->transfer_latency, [this, peer, payload = std::move(payload)] {
        if (!connected_to(peer) || !medium_.in_range(owner_, peer)) {
          break_link(peer, true);
          return;
        }
        medium_.radio(peer)->deliver(payload, owner_);
      });
  return Status::success();
}

void WifiDirectRadio::deliver(const net::D2dPayload& payload, NodeId from) {
  if (on_receive_) on_receive_(payload, from);
}

}  // namespace d2dhb::d2d

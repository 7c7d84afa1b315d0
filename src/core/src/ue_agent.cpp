#include "core/ue_agent.hpp"

#include <utility>

#include "d2d/wifi_direct.hpp"

namespace d2dhb::core {

UeAgent::UeAgent(sim::Simulator& sim, Phone& phone, Params params,
                 radio::BaseStation& bs, Arena* arena)
    : sim_(sim),
      phone_(phone),
      match_(params.match),
      retry_backoff_(params.retry_backoff),
      bs_(bs),
      feedback_(
          sim, params.feedback_timeout,
          [this](const net::HeartbeatMessage& m) {
            fallback_cellular_ctr_->inc();
            send_via_cellular(m, /*is_fallback=*/true);
          },
          phone.id()),
      monitor_(sim, phone.id(), arena) {
  auto& reg = sim_.metrics();
  const metrics::Labels labels{phone_.id().value, -1, "ue"};
  heartbeats_ctr_ = &reg.counter("ue.heartbeats", labels);
  sent_via_d2d_ctr_ = &reg.counter("ue.sent_via_d2d", labels);
  sent_via_cellular_ctr_ = &reg.counter("ue.sent_via_cellular", labels);
  fallback_cellular_ctr_ = &reg.counter("ue.fallback_cellular", labels);
  discoveries_ctr_ = &reg.counter("ue.discoveries", labels);
  matches_ctr_ = &reg.counter("ue.matches", labels);
  connects_ctr_ = &reg.counter("ue.connects", labels);
  connect_failures_ctr_ = &reg.counter("ue.connect_failures", labels);
  link_losses_ctr_ = &reg.counter("ue.link_losses", labels);
  reassessments_ctr_ = &reg.counter("ue.reassessments", labels);
  handovers_ctr_ = &reg.counter("ue.handovers", labels);
  monitor_.set_transport(
      [this](const net::HeartbeatMessage& m) { on_heartbeat(m); });
  add_app(std::move(params.app));
  phone_.modem().set_uplink_handler(
      [this](const net::UplinkBundle& bundle) { bs_.receive(bundle); });
  phone_.wifi().set_receive_handler(
      [this](const net::D2dPayload& payload, NodeId from) {
        on_d2d_receive(payload, from);
      });
  phone_.wifi().set_disconnect_handler(
      [this](NodeId peer) { on_link_lost(peer); });
  phone_.wifi().set_group_owner_intent(0);  // UEs never want to own a group
  if (params.reassess_interval > Duration::zero()) {
    reassess_timer_.emplace(sim_, params.reassess_interval,
                            [this] { reassess(); });
  }
}

apps::HeartbeatApp& UeAgent::add_app(apps::AppProfile profile) {
  return monitor_.integrate_app(std::move(profile));
}

void UeAgent::start(Duration heartbeat_offset) {
  running_ = true;
  monitor_.start_all(heartbeat_offset);
  if (reassess_timer_) reassess_timer_->start();
}

void UeAgent::stop() {
  running_ = false;
  monitor_.stop_all();
  if (reassess_timer_) reassess_timer_->stop();
  if (state_ == LinkState::connected && relay_.valid()) {
    phone_.wifi().disconnect(relay_);
  }
  state_ = LinkState::idle;
  relay_ = NodeId{};
}

void UeAgent::on_heartbeat(const net::HeartbeatMessage& message) {
  heartbeats_ctr_->inc();
  switch (state_) {
    case LinkState::connected:
      send_via_d2d(message);
      return;
    case LinkState::discovering:
    case LinkState::connecting:
      awaiting_link_.push_back(message);
      return;
    case LinkState::idle:
      if (sim_.now() < backoff_until_) {
        send_via_cellular(message, /*is_fallback=*/false);
        return;
      }
      awaiting_link_.push_back(message);
      begin_discovery();
      return;
  }
}

void UeAgent::begin_discovery() {
  state_ = LinkState::discovering;
  discoveries_ctr_->inc();
  phone_.wifi().start_discovery(
      [this](const std::vector<d2d::DiscoveredPeer>& peers) {
        on_discovery(peers);
      });
}

void UeAgent::on_discovery(const std::vector<d2d::DiscoveredPeer>& peers) {
  if (!running_) return;
  const auto choice =
      match_relay(match_, peers, phone_.wifi().medium().key(),
                  phone_.id(), sim_.now());
  if (!choice) {
    fail_d2d_attempt();
    return;
  }
  matches_ctr_->inc();
  connect_to(choice->node, /*handover=*/false);
}

void UeAgent::connect_to(NodeId relay, bool handover) {
  state_ = LinkState::connecting;
  phone_.wifi().connect(relay, [this, relay, handover](
                                   Result<GroupId> result) {
    if (!running_) return;
    if (!result.ok()) {
      connect_failures_ctr_->inc();
      fail_d2d_attempt();
      return;
    }
    connects_ctr_->inc();
    if (handover) handovers_ctr_->inc();
    state_ = LinkState::connected;
    relay_ = relay;
    current_backoff_ = Duration::zero();  // success resets the backoff
    // Forward everything that queued up while we were pairing.
    std::vector<net::HeartbeatMessage> queued;
    queued.swap(awaiting_link_);
    for (const auto& m : queued) send_via_d2d(m);
  });
}

void UeAgent::fail_d2d_attempt() {
  state_ = LinkState::idle;
  relay_ = NodeId{};
  if (current_backoff_ == Duration::zero()) {
    current_backoff_ = retry_backoff_;
  } else {
    constexpr double kBackoffMultiplier = 2.0;
    constexpr Duration kMaxBackoff = seconds(1800);
    const auto scaled = static_cast<std::int64_t>(
        static_cast<double>(current_backoff_.count()) * kBackoffMultiplier);
    current_backoff_ = std::min(kMaxBackoff, Duration{scaled});
  }
  backoff_until_ = sim_.now() + current_backoff_;
  drain_queue_to_cellular();
}

void UeAgent::drain_queue_to_cellular() {
  std::vector<net::HeartbeatMessage> queued;
  queued.swap(awaiting_link_);
  for (const auto& m : queued) send_via_cellular(m, /*is_fallback=*/false);
}

void UeAgent::send_via_d2d(const net::HeartbeatMessage& message) {
  // Track before sending: the feedback covers the BS hop as well.
  feedback_.track(message);
  sent_via_d2d_ctr_->inc();
  // A send that fails because the link died needs no handling here: the
  // disconnect handler fails the tracker entry (or it times out).
  phone_.wifi().send(relay_, net::D2dPayload{message});
}

void UeAgent::send_via_cellular(const net::HeartbeatMessage& message,
                                bool is_fallback) {
  if (!is_fallback) sent_via_cellular_ctr_->inc();
  net::UplinkBundle bundle;
  bundle.sender = phone_.id();
  bundle.messages = {message};
  phone_.modem().transmit(std::move(bundle));
}

void UeAgent::on_d2d_receive(const net::D2dPayload& payload, NodeId) {
  if (const auto* ack = std::get_if<net::FeedbackAck>(&payload)) {
    feedback_.acknowledge(ack->delivered);
  }
}

void UeAgent::on_link_lost(NodeId peer) {
  if (peer != relay_) return;
  state_ = LinkState::idle;
  relay_ = NodeId{};
  // Anything unacknowledged may never be acked — retransmit now rather
  // than risk the server deadline.
  feedback_.fail_all_pending();
  drain_queue_to_cellular();
  if (handover_target_.valid()) {
    // Planned switch: immediately pair with the chosen better relay.
    const NodeId target = handover_target_;
    handover_target_ = NodeId{};
    connect_to(target, /*handover=*/true);
    return;
  }
  link_losses_ctr_->inc();
}

void UeAgent::reassess() {
  if (!running_ || state_ != LinkState::connected) return;
  reassessments_ctr_->inc();
  phone_.wifi().start_discovery(
      [this](const std::vector<d2d::DiscoveredPeer>& peers) {
        if (!running_ || state_ != LinkState::connected) return;
        std::optional<d2d::DiscoveredPeer> current;
        std::vector<d2d::DiscoveredPeer> others;
        for (const auto& peer : peers) {
          if (peer.node == relay_) {
            current = peer;
          } else {
            others.push_back(peer);
          }
        }
        if (!current) return;  // range loss is the link monitor's job
        const auto candidate =
            match_relay(match_, others, phone_.wifi().medium().key(),
                        phone_.id(), sim_.now());
        if (!candidate) return;
        // Switch only to a relay at most this fraction as far away.
        constexpr double kReassessImprovement = 0.6;
        if (candidate->estimated_distance.value >=
            kReassessImprovement * current->estimated_distance.value) {
          return;  // not enough of an improvement to pay the switch
        }
        // Switch: retransmit anything unacked over cellular (the old
        // relay can no longer deliver feedback), then reconnect.
        handover_target_ = candidate->node;
        phone_.wifi().disconnect(relay_);
      });
}

UeAgent::Stats UeAgent::stats() const {
  Stats s;
  s.heartbeats = heartbeats_ctr_->value();
  s.sent_via_d2d = sent_via_d2d_ctr_->value();
  s.sent_via_cellular = sent_via_cellular_ctr_->value();
  s.fallback_cellular = fallback_cellular_ctr_->value();
  s.discoveries = discoveries_ctr_->value();
  s.matches = matches_ctr_->value();
  s.connects = connects_ctr_->value();
  s.connect_failures = connect_failures_ctr_->value();
  s.link_losses = link_losses_ctr_->value();
  s.reassessments = reassessments_ctr_->value();
  s.handovers = handovers_ctr_->value();
  return s;
}

}  // namespace d2dhb::core

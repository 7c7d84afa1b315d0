#include "core/relay_agent.hpp"

#include <algorithm>
#include <cmath>
#include <set>
#include <utility>

#include "d2d/wifi_direct.hpp"

namespace d2dhb::core {

namespace {
MessageScheduler::Params labelled(MessageScheduler::Params p, NodeId node) {
  p.node = node;
  return p;
}
}  // namespace

RelayAgent::RelayAgent(sim::Simulator& sim, Phone& phone, Params params,
                       radio::BaseStation& bs, IncentiveLedger* ledger,
                       Arena* arena)
    : sim_(sim),
      phone_(phone),
      bs_(bs),
      ledger_(ledger),
      scheduler_(sim, labelled(params.scheduler, phone.id()),
                 [this](std::vector<net::HeartbeatMessage> batch,
                        FlushReason) { on_flush(std::move(batch)); }),
      own_app_(sim, phone.id(), apps::app_id_for(phone.id(), 0),
               params.own_app,
               [this](const net::HeartbeatMessage& m) { on_own_heartbeat(m); }),
      arena_(arena),
      run_own_heartbeats_(params.run_own_heartbeats) {
  phone_.modem().set_uplink_handler(
      [this](const net::UplinkBundle& bundle) { on_uplink_complete(bundle); });
  phone_.wifi().set_receive_handler(
      [this](const net::D2dPayload& payload, NodeId) {
        on_d2d_receive(payload);
      });
  auto& reg = sim_.metrics();
  const metrics::Labels labels{phone_.id().value, -1, "relay"};
  own_heartbeats_ctr_ = &reg.counter("relay.own_heartbeats", labels);
  forwarded_received_ctr_ = &reg.counter("relay.forwarded_received", labels);
  forwarded_rejected_ctr_ = &reg.counter("relay.forwarded_rejected", labels);
  bundles_sent_ctr_ = &reg.counter("relay.bundles_sent", labels);
  heartbeats_uplinked_ctr_ = &reg.counter("relay.heartbeats_uplinked", labels);
  feedback_acks_sent_ctr_ = &reg.counter("relay.feedback_acks_sent", labels);
  if (params.battery_capacity.value > 0.0) {
    battery_.emplace(phone_.meter(), params.battery_capacity,
                     [this] { retire(); });
    battery_poll_.emplace(sim_, params.battery_poll_interval,
                          [this] { poll_battery(); });
    reg.gauge_fn("battery.level", labels, *this,
                 [](RelayAgent& a) { return a.battery_->level(); });
  }
}

double RelayAgent::battery_level() {
  return battery_ ? battery_->level() : 1.0;
}

void RelayAgent::poll_battery() {
  if (!battery_ || retired_) return;
  constexpr double kRetireBatteryLevel = 0.1;
  if (battery_->level() <= kRetireBatteryLevel) {
    retire();
    return;
  }
  refresh_advert();  // advertised capacity tracks the battery
}

void RelayAgent::retire() {
  if (retired_) return;
  retired_ = true;
  stop();
  if (battery_poll_) battery_poll_->stop();
  if (battery_ && battery_->depleted()) {
    // A dead phone can't even finish the forced flush.
    phone_.modem().force_idle();
  }
  phone_.wifi().disconnect_all();
}

apps::HeartbeatApp& RelayAgent::add_own_app(apps::AppProfile profile) {
  apps::HeartbeatApp& app = arena_.get().create<apps::HeartbeatApp>(
      sim_, phone_.id(),
      apps::app_id_for(phone_.id(), extra_apps_.size() + 1),
      std::move(profile),
      [this](const net::HeartbeatMessage& m) {
        // Extra own apps' heartbeats join the buffer like forwarded
        // ones: they must go out before their own expiration, but they
        // don't open or close the collection window.
        if (!scheduler_.collect(m)) {
          // Buffer full or strict-mode closed window: send directly.
          net::UplinkBundle bundle;
          bundle.sender = phone_.id();
          bundle.messages = {m};
          phone_.modem().transmit(std::move(bundle));
        }
        refresh_advert();
      });
  extra_apps_.push_back(&app);
  return app;
}

void RelayAgent::start(Duration heartbeat_offset) {
  if (retired_) return;
  running_ = true;
  if (battery_poll_) battery_poll_->start();
  phone_.wifi().set_listening(true);
  phone_.wifi().set_group_owner_intent(d2d::kMaxGroupOwnerIntent);
  refresh_advert();
  if (run_own_heartbeats_) own_app_.start(heartbeat_offset);
  for (auto* app : extra_apps_) app->start(heartbeat_offset);
}

void RelayAgent::stop() {
  running_ = false;
  own_app_.stop();
  for (auto* app : extra_apps_) app->stop();
  scheduler_.flush_now(FlushReason::forced);
  phone_.wifi().set_listening(false);
  phone_.wifi().set_advert(d2d::RelayAdvert{});
}

void RelayAgent::on_own_heartbeat(const net::HeartbeatMessage& message) {
  own_heartbeats_ctr_->inc();
  scheduler_.begin_window(message);
  refresh_advert();
}

void RelayAgent::on_d2d_receive(const net::D2dPayload& payload) {
  const auto* hb = std::get_if<net::HeartbeatMessage>(&payload);
  if (hb == nullptr) return;  // relays don't consume feedback acks
  if (!running_ || !scheduler_.collect(*hb)) {
    forwarded_rejected_ctr_->inc();
    return;
  }
  forwarded_received_ctr_->inc();
  refresh_advert();
}

void RelayAgent::on_flush(std::vector<net::HeartbeatMessage> batch) {
  if (batch.empty()) return;
  net::UplinkBundle bundle;
  bundle.sender = phone_.id();
  bundle.messages = std::move(batch);
  phone_.modem().transmit(std::move(bundle));
  refresh_advert();
}

void RelayAgent::on_uplink_complete(const net::UplinkBundle& bundle) {
  bundles_sent_ctr_->inc();
  heartbeats_uplinked_ctr_->inc(bundle.messages.size());
  bs_.receive(bundle);

  // Feedback: ack every UE whose heartbeats rode in this aggregate.
  std::set<NodeId> origins;
  std::uint64_t forwarded = 0;
  for (const auto& m : bundle.messages) {
    if (m.origin == phone_.id()) continue;
    origins.insert(m.origin);
    ++forwarded;
  }
  for (const NodeId ue : origins) {
    net::FeedbackAck ack;
    for (const auto& m : bundle.messages) {
      if (m.origin == ue) ack.delivered.push_back(m.id);
    }
    if (phone_.wifi().connected_to(ue)) {
      feedback_acks_sent_ctr_->inc();
      // Best effort: a UE whose ack is lost falls back to cellular.
      phone_.wifi().send(ue, net::D2dPayload{std::move(ack)});
    }
  }
  if (ledger_ != nullptr && forwarded > 0) {
    ledger_->credit(phone_.id(), forwarded);
  }
}

void RelayAgent::refresh_advert() {
  d2d::RelayAdvert advert;
  advert.offers_relay = running_;
  // Battery-aware capacity: a half-drained relay offers half its buffer.
  const double scale = battery_ ? battery_->level() : 1.0;
  advert.capacity_remaining = static_cast<std::uint32_t>(
      std::floor(static_cast<double>(scheduler_.remaining_capacity()) *
                 scale));
  phone_.wifi().set_advert(advert);
  // Android groupOwnerIntent starts at the maximum for relays and is
  // reduced proportionally as the buffer fills (Section IV-C).
  const auto capacity = std::max<std::size_t>(scheduler_.params().capacity, 1);
  const int intent = static_cast<int>(
      d2d::kMaxGroupOwnerIntent * scheduler_.remaining_capacity() / capacity);
  phone_.wifi().set_group_owner_intent(intent);
}

RelayAgent::Stats RelayAgent::stats() const {
  Stats s;
  s.own_heartbeats = own_heartbeats_ctr_->value();
  s.forwarded_received = forwarded_received_ctr_->value();
  s.forwarded_rejected = forwarded_rejected_ctr_->value();
  s.bundles_sent = bundles_sent_ctr_->value();
  s.heartbeats_uplinked = heartbeats_uplinked_ctr_->value();
  s.feedback_acks_sent = feedback_acks_sent_ctr_->value();
  return s;
}

}  // namespace d2dhb::core

#include "core/baseline_agent.hpp"

#include <algorithm>
#include <utility>

#include "apps/heartbeat_app.hpp"

namespace d2dhb::core {

namespace {

apps::AppProfile stretched(apps::AppProfile app, double factor) {
  if (factor != 1.0) {
    app.heartbeat_period = Duration{static_cast<std::int64_t>(
        static_cast<double>(app.heartbeat_period.count()) * factor)};
    // The server's tolerance tracks the announced period, so the
    // expiration budget stretches with it.
    app.expiry = app.heartbeat_period;
  }
  return app;
}

}  // namespace

CellularBaselineAgent::CellularBaselineAgent(
    sim::Simulator& sim, Phone& phone, Params params,
    radio::BaseStation& bs, Rng rng)
    : sim_(sim),
      phone_(phone),
      params_(params),
      bs_(bs),
      effective_profile_(stretched(params.app, params.period_factor)),
      traffic_(sim, effective_profile_, rng,
               [this](apps::MixedTrafficGenerator::Kind kind, Bytes size) {
                 on_traffic(kind, size);
               }) {
  phone_.modem().set_fast_dormancy(params_.fast_dormancy);
  phone_.modem().set_uplink_handler(
      [this](const net::UplinkBundle& bundle) { bs_.receive(bundle); });
  auto& reg = sim_.metrics();
  const metrics::Labels labels{phone_.id().value, -1, "baseline"};
  heartbeats_ctr_ = &reg.counter("baseline.heartbeats", labels);
  data_sends_ctr_ = &reg.counter("baseline.data_sends", labels);
  piggybacked_ctr_ = &reg.counter("baseline.piggybacked", labels);
  sent_alone_ctr_ = &reg.counter("baseline.sent_alone", labels);
}

CellularBaselineAgent::~CellularBaselineAgent() {
  if (pending_deadline_.valid()) sim_.cancel(pending_deadline_);
}

void CellularBaselineAgent::start() { traffic_.start(); }

void CellularBaselineAgent::stop() {
  traffic_.stop();
  if (pending_deadline_.valid()) sim_.cancel(pending_deadline_);
  pending_deadline_ = {};
}

void CellularBaselineAgent::on_traffic(
    apps::MixedTrafficGenerator::Kind kind, Bytes size) {
  if (kind == apps::MixedTrafficGenerator::Kind::heartbeat) {
    heartbeats_ctr_->inc();
    pending_.push_back(net::make_heartbeat(
        phone_.id(), apps::app_id_for(phone_.id(), 0), ++seq_,
        effective_profile_.heartbeat_size, effective_profile_.expiry,
        sim_.now()));
    if (params_.piggyback) {
      arm_pending_deadline();
    } else {
      send_heartbeats_now(Bytes{0});
    }
    return;
  }

  if (!params_.with_data_traffic) return;
  data_sends_ctr_->inc();
  // A data transmission: anything pending rides along for free.
  piggybacked_ctr_->inc(pending_.size());
  send_heartbeats_now(size);
}

void CellularBaselineAgent::send_heartbeats_now(Bytes data_payload) {
  if (pending_deadline_.valid()) {
    sim_.cancel(pending_deadline_);
    pending_deadline_ = {};
  }
  net::UplinkBundle bundle;
  bundle.sender = phone_.id();
  bundle.messages = std::move(pending_);
  pending_.clear();
  bundle.extra_payload = data_payload;
  if (bundle.messages.empty() && data_payload.value == 0) return;
  phone_.modem().transmit(std::move(bundle));
}

void CellularBaselineAgent::arm_pending_deadline() {
  if (pending_.empty()) return;
  if (pending_deadline_.valid()) sim_.cancel(pending_deadline_);
  // Earliest expiration among pending heartbeats, minus the margin.
  TimePoint earliest = pending_.front().deadline();
  for (const auto& m : pending_) {
    earliest = std::min(earliest, m.deadline());
  }
  TimePoint fire = earliest - params_.piggyback_margin;
  if (fire < sim_.now()) fire = sim_.now();
  pending_deadline_ = sim_.schedule_at(fire, [this] {
    pending_deadline_ = {};
    sent_alone_ctr_->inc(pending_.size());
    send_heartbeats_now(Bytes{0});
  });
}

CellularBaselineAgent::Stats CellularBaselineAgent::stats() const {
  Stats s;
  s.heartbeats = heartbeats_ctr_->value();
  s.data_sends = data_sends_ctr_->value();
  s.piggybacked = piggybacked_ctr_->value();
  s.sent_alone = sent_alone_ctr_->value();
  return s;
}

}  // namespace d2dhb::core

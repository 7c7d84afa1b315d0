#include "core/original_agent.hpp"

#include <utility>

namespace d2dhb::core {

OriginalAgent::OriginalAgent(sim::Simulator& sim, Phone& phone,
                             apps::AppProfile app, radio::BaseStation& bs,
                             Arena* arena)
    : sim_(sim), phone_(phone), bs_(bs), arena_(arena) {
  phone_.modem().set_uplink_handler(
      [this](const net::UplinkBundle& bundle) { bs_.receive(bundle); });
  sent_ctr_ = &sim_.metrics().counter("original.heartbeats_sent",
                                      {phone_.id().value, -1, "original"});
  add_app(std::move(app));
}

void OriginalAgent::add_app(apps::AppProfile app) {
  apps_.push_back(&arena_.get().create<apps::HeartbeatApp>(
      sim_, phone_.id(), apps::app_id_for(phone_.id(), apps_.size()),
      std::move(app),
      [this](const net::HeartbeatMessage& m) { send(m); }));
}

void OriginalAgent::start(Duration heartbeat_offset) {
  for (auto* app : apps_) app->start(heartbeat_offset);
}

void OriginalAgent::stop() {
  for (auto* app : apps_) app->stop();
}

void OriginalAgent::send(const net::HeartbeatMessage& message) {
  sent_ctr_->inc();
  net::UplinkBundle bundle;
  bundle.sender = phone_.id();
  bundle.messages = {message};
  phone_.modem().transmit(std::move(bundle));
}

}  // namespace d2dhb::core

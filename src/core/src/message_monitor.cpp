#include "core/message_monitor.hpp"

#include <utility>

namespace d2dhb::core {

MessageMonitor::MessageMonitor(sim::Simulator& sim, NodeId node,
                               Arena* arena)
    : sim_(sim), node_(node), arena_(arena) {}

void MessageMonitor::set_transport(Transport transport) {
  transport_ = std::move(transport);
}

apps::HeartbeatApp& MessageMonitor::integrate_app(apps::AppProfile profile) {
  apps::HeartbeatApp& app = arena_.get().create<apps::HeartbeatApp>(
      sim_, node_, apps::app_id_for(node_, apps_.size()), std::move(profile),
      [this](const net::HeartbeatMessage& m) { on_heartbeat(m); });
  apps_.push_back(&app);
  return app;
}

void MessageMonitor::start_all(Duration offset) {
  for (auto* app : apps_) app->start(offset);
}

void MessageMonitor::stop_all() {
  for (auto* app : apps_) app->stop();
}

void MessageMonitor::on_heartbeat(const net::HeartbeatMessage& message) {
  ++intercepted_;
  if (transport_) transport_(message);
}

}  // namespace d2dhb::core

#include "apps/heartbeat_app.hpp"

#include <utility>

namespace d2dhb::apps {

HeartbeatApp::HeartbeatApp(sim::Simulator& sim, NodeId node, AppId app,
                           AppProfile profile, Sink sink)
    : sim_(sim),
      node_(node),
      app_(app),
      profile_(std::move(profile)),
      sink_(std::move(sink)),
      timer_(sim, profile_.heartbeat_period, [this] {
        if (max_emissions_ != 0 && emitted_ >= max_emissions_) {
          timer_.stop();
          return;
        }
        sink_(make_message());
        if (max_emissions_ != 0 && emitted_ >= max_emissions_) timer_.stop();
      }) {}

void HeartbeatApp::start(Duration offset) {
  timer_.start_after(offset == Duration::zero() ? profile_.heartbeat_period
                                                : offset);
}

void HeartbeatApp::stop() { timer_.stop(); }

net::HeartbeatMessage HeartbeatApp::make_message() {
  return net::make_heartbeat(node_, app_, ++emitted_, profile_.heartbeat_size,
                             profile_.expiry, sim_.now());
}

net::HeartbeatMessage HeartbeatApp::emit_now() {
  net::HeartbeatMessage m = make_message();
  sink_(m);
  return m;
}

}  // namespace d2dhb::apps

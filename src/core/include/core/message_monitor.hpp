// Message Monitor — the third component of the paper's architecture
// (Fig. 2) and its app-facing API (Section IV-B): "we design a set of
// APIs for app developers to integrate the proposed D2D based framework
// into their existing apps."
//
// An IM app integrates by registering its profile; the monitor
// intercepts every heartbeat the app emits together with its
// transmission-related parameters (period, expiration) and hands it to
// whatever transport the node's role wires up — the UE agent's
// relay-or-cellular path, or a bare modem.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "apps/heartbeat_app.hpp"
#include "common/arena.hpp"
#include "common/id.hpp"
#include "sim/simulator.hpp"

namespace d2dhb::core {

class MessageMonitor {
 public:
  /// Receives every intercepted heartbeat.
  using Transport = std::function<void(const net::HeartbeatMessage&)>;

  /// `arena` pools the integrated apps (a Scenario passes the node's
  /// strip arena, so every app on a strip is strip-local memory);
  /// nullptr falls back to a private per-monitor heap arena —
  /// standalone monitors behave exactly like the pre-arena code.
  MessageMonitor(sim::Simulator& sim, NodeId node, Arena* arena = nullptr);

  /// Where intercepted heartbeats go. Replacing the transport affects
  /// subsequent heartbeats only.
  void set_transport(Transport transport);

  /// The integration point for app developers: register the app's
  /// profile; the monitor owns the resulting heartbeat source.
  apps::HeartbeatApp& integrate_app(apps::AppProfile profile);

  void start_all(Duration offset = Duration::zero());
  void stop_all();

  std::vector<apps::HeartbeatApp*>& apps() { return apps_; }
  std::size_t app_count() const { return apps_.size(); }
  std::uint64_t intercepted() const { return intercepted_; }
  NodeId node() const { return node_; }

 private:
  void on_heartbeat(const net::HeartbeatMessage& message);

  sim::Simulator& sim_;
  NodeId node_;
  Transport transport_;
  /// Where integrated apps are constructed (borrowed strip arena or a
  /// private heap-mode one); the arena owns their lifetimes.
  ArenaHandle arena_;
  std::vector<apps::HeartbeatApp*> apps_;
  std::uint64_t intercepted_{0};
};

}  // namespace d2dhb::core

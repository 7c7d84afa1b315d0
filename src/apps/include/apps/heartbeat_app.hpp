// A running IM app instance: emits heartbeats on its profile's period
// into whatever transport the node wires up (direct cellular in the
// original system, the MessageMonitor API in the D2D framework).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>

#include "apps/app_profile.hpp"
#include "common/id.hpp"
#include "net/message.hpp"
#include "sim/simulator.hpp"

namespace d2dhb::apps {

/// The AppId of the `index`-th app installed on `node` (0-based): the
/// first app uses the node's own id, so server registrations by node
/// line up; later ones get derived ids.
constexpr AppId app_id_for(NodeId node, std::size_t index) {
  return AppId{index == 0 ? node.value : node.value * 1000 + index + 1};
}

/// Emits heartbeats whose ids are net::message_id(app, seq).
class HeartbeatApp {
 public:
  /// Receives each emitted heartbeat.
  using Sink = std::function<void(const net::HeartbeatMessage&)>;

  HeartbeatApp(sim::Simulator& sim, NodeId node, AppId app,
               AppProfile profile, Sink sink);

  /// Begins the periodic emission; first heartbeat fires after `offset`
  /// (stagger apps so they don't all beat at t=0).
  void start(Duration offset = Duration::zero());
  void stop();

  /// Stops automatically after `n` emissions (0 = unlimited). Used by
  /// the benches that sweep "transmission times".
  void set_max_emissions(std::uint64_t n) { max_emissions_ = n; }

  /// Emits one heartbeat immediately (outside the periodic schedule).
  net::HeartbeatMessage emit_now();

  const AppProfile& profile() const { return profile_; }
  NodeId node() const { return node_; }
  AppId app_id() const { return app_; }
  std::uint64_t emitted() const { return emitted_; }

 private:
  net::HeartbeatMessage make_message();

  sim::Simulator& sim_;
  NodeId node_;
  AppId app_;
  AppProfile profile_;
  Sink sink_;
  sim::PeriodicTimer timer_;
  std::uint64_t emitted_{0};
  std::uint64_t max_emissions_{0};
};

}  // namespace d2dhb::apps

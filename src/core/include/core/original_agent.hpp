// Baseline: "the system without any modification" (Section V-A) — every
// phone transmits each of its own heartbeats directly over cellular,
// paying a full RRC cycle per heartbeat.
#pragma once

#include <cstdint>
#include <vector>

#include "apps/heartbeat_app.hpp"
#include "common/arena.hpp"
#include "core/phone.hpp"
#include "metrics/registry.hpp"
#include "radio/base_station.hpp"

namespace d2dhb::core {

class OriginalAgent {
 public:
  /// `arena` pools the heartbeat apps (a Scenario passes the phone's
  /// strip arena); nullptr = private per-agent heap fallback.
  OriginalAgent(sim::Simulator& sim, Phone& phone, apps::AppProfile app,
                radio::BaseStation& bs, Arena* arena = nullptr);

  /// Adds another IM app to this phone (phones often run several).
  void add_app(apps::AppProfile app);

  void start(Duration heartbeat_offset = Duration::zero());
  void stop();

  Phone& phone() { return phone_; }
  std::vector<apps::HeartbeatApp*>& apps() { return apps_; }
  std::uint64_t heartbeats_sent() const { return sent_ctr_->value(); }

 private:
  void send(const net::HeartbeatMessage& message);

  sim::Simulator& sim_;
  Phone& phone_;
  radio::BaseStation& bs_;
  /// Where apps live (borrowed strip arena or a private heap-mode one);
  /// the arena owns their lifetimes.
  ArenaHandle arena_;
  std::vector<apps::HeartbeatApp*> apps_;

  // Registry-backed counter (owned by the simulator's registry).
  metrics::Counter* sent_ctr_;
};

}  // namespace d2dhb::core

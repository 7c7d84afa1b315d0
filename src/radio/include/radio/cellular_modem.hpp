// Cellular modem: RRC state machine + uplink engine + power coupling.
//
// One instance per smartphone. transmit() queues an uplink bundle; the
// modem walks the RRC machine (promotion, burst, demotion tail), charges
// the phone's EnergyMeter for every state it passes through, and records
// each control-plane exchange in the shared SignalingCounter.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/id.hpp"
#include "common/units.hpp"
#include "energy/energy_meter.hpp"
#include "metrics/registry.hpp"
#include "net/message.hpp"
#include "radio/rrc_profile.hpp"
#include "radio/signaling.hpp"
#include "sim/simulator.hpp"

namespace d2dhb::radio {

enum class RrcState { idle, promoting, high, transmitting, low };

const char* to_string(RrcState s);

class CellularModem {
 public:
  /// Called when a bundle finishes its uplink burst (i.e. reached the BS).
  using UplinkHandler = std::function<void(const net::UplinkBundle&)>;

  /// `profile` is shared, not copied: it must not be null.
  CellularModem(sim::Simulator& sim, NodeId owner, RrcProfilePtr profile,
                energy::EnergyMeter& meter, SignalingCounter& signaling);

  CellularModem(const CellularModem&) = delete;
  CellularModem& operator=(const CellularModem&) = delete;

  void set_uplink_handler(UplinkHandler handler) {
    uplink_ = std::move(handler);
  }

  /// Queues a bundle for transmission. Triggers promotion if idle.
  void transmit(net::UplinkBundle bundle);

  /// Fast dormancy (the related-work baseline of [26]): after the last
  /// queued burst, the device sends an SCRI and drops straight to IDLE,
  /// skipping the DCH/FACH inactivity tails. Saves tail energy but
  /// costs a fresh RRC setup for every transmission — "aggravates
  /// signaling storm while reducing energy consumption".
  void set_fast_dormancy(bool enabled) { fast_dormancy_ = enabled; }
  bool fast_dormancy() const { return fast_dormancy_; }

  RrcState state() const { return state_; }
  NodeId owner() const { return owner_; }
  const RrcProfile& profile() const { return *profile_; }

  /// Cumulative charge drawn by the cellular component.
  MicroAmpHours radio_charge() { return meter_.component_charge(component_); }

  std::uint64_t bundles_sent() const { return bundles_sent_ctr_->value(); }
  std::uint64_t rrc_promotions() const { return promotions_ctr_->value(); }
  std::uint64_t rrc_transitions() const { return transitions_ctr_->value(); }

  /// Drops the radio to IDLE immediately (airplane mode / network loss).
  /// Queued bundles are discarded; used by failure-injection tests.
  void force_idle();

 private:
  void enter(RrcState next);
  void start_next_burst();
  void arm_high_inactivity();
  void arm_low_inactivity();
  void cancel_inactivity();
  MilliAmps state_current(RrcState s) const;

  sim::Simulator& sim_;
  NodeId owner_;
  RrcProfilePtr profile_;
  energy::EnergyMeter& meter_;
  energy::ComponentHandle component_;
  SignalingCounter& signaling_;
  UplinkHandler uplink_;

  RrcState state_{RrcState::idle};
  bool fast_dormancy_{false};
  /// FIFO of bundles waiting for the radio. It holds at most a few, so
  /// front erase is cheap, and unlike a deque it allocates nothing until
  /// the first transmit (most UEs of a crowd never transmit).
  std::vector<net::UplinkBundle> queue_;
  sim::EventId inactivity_event_{};
  std::uint64_t epoch_{0};  ///< Invalidates in-flight events on force_idle().

  // Registry-backed counters (owned by the simulator's registry).
  metrics::Counter* bundles_sent_ctr_;
  metrics::Counter* promotions_ctr_;
  metrics::Counter* transitions_ctr_;
};

}  // namespace d2dhb::radio

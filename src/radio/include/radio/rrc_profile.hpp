// RRC state machine parameterization.
//
// "RRC state machine, which is used to allocate the limited radio
// resources, is implemented in GPRS, EVDO, UMTS, and LTE Networks"
// (Section II-B). The modem models a three-tier machine:
//
//   IDLE --(promotion: delay + setup signaling)--> HIGH (DCH / CONNECTED)
//   HIGH --(inactivity T1)--> LOW (FACH / connected-DRX)
//   LOW  --(inactivity T2, release signaling)--> IDLE
//   LOW  --(uplink: reconfiguration signaling)--> HIGH
//
// Each transition costs layer-3 control messages — the signaling traffic
// the paper's framework exists to reduce — and each state has a current
// draw that the energy meter integrates.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/units.hpp"
#include "radio/signaling.hpp"

namespace d2dhb::radio {

struct RrcProfile {
  std::string name;

  // --- Timing ---
  Duration promotion_delay;   ///< IDLE -> HIGH ramp (RRC setup exchange).
  Duration reconfig_delay;    ///< LOW -> HIGH ramp.
  Duration high_inactivity;   ///< HIGH -> LOW demotion timer (T1).
  Duration low_inactivity;    ///< LOW -> IDLE demotion timer (T2).
  Duration min_tx_duration;   ///< Floor on an uplink burst (TCP/NAS chatter).
  double uplink_bytes_per_second;  ///< Burst length for large payloads.

  // --- Power (current draw of the cellular component per state) ---
  MilliAmps idle_current;
  MilliAmps promotion_current;
  MilliAmps high_current;     ///< Holding DCH / CONNECTED without traffic.
  MilliAmps tx_extra_current; ///< Added on top of high_current while bursting.
  MilliAmps low_current;      ///< FACH / DRX.

  // --- Layer-3 signaling message sequences per transition ---
  std::vector<L3MessageType> setup_sequence;        ///< IDLE -> HIGH.
  std::vector<L3MessageType> release_sequence;      ///< LOW -> IDLE.
  std::vector<L3MessageType> high_to_low_sequence;  ///< HIGH -> LOW.
  std::vector<L3MessageType> low_to_high_sequence;  ///< LOW -> HIGH.
  /// Extra radio-bearer reconfiguration sent when a single uplink payload
  /// exceeds `rb_reconfig_threshold` (reproduces the paper's observation
  /// that bigger aggregates cost slightly more signaling, Fig. 15).
  std::vector<L3MessageType> rb_reconfig_sequence;
  Bytes rb_reconfig_threshold;

  /// L3 messages in a full IDLE->HIGH->LOW->IDLE cycle with a small
  /// payload — the per-heartbeat signaling cost of the original system.
  std::size_t full_cycle_l3() const {
    return setup_sequence.size() + high_to_low_sequence.size() +
           release_sequence.size();
  }
};

/// A profile is per-world configuration, never per-phone state: every
/// modem that runs a given profile points at one immutable instance.
using RrcProfilePtr = std::shared_ptr<const RrcProfile>;

/// WCDMA (UMTS) profile — the network the paper measures with
/// NetOptiMaster (Section V-B). Calibrated so that one isolated 54 B
/// heartbeat costs ~750 µAh of cellular-radio charge and 8 layer-3
/// messages per full RRC cycle (Fig. 15's original-system slope).
RrcProfile wcdma_profile();

/// The one process-wide wcdma_profile() that a default PhoneConfig
/// shares.
const RrcProfilePtr& shared_wcdma_profile();

/// LTE profile — shorter promotion, connected-mode DRX tail. Provided for
/// the generality discussion in Section III ("schemes ... vary in
/// different cellular networks"); benches default to WCDMA.
RrcProfile lte_profile();

}  // namespace d2dhb::radio

// A simulated smartphone: energy meter, platform baseline draw, cellular
// modem, Wi-Fi Direct radio, and a mobility model — everything the
// paper's prototype runs on, minus Android.
#pragma once

#include <memory>
#include <string>

#include "common/id.hpp"
#include "common/units.hpp"
#include "d2d/energy_profile.hpp"
#include "d2d/medium.hpp"
#include "d2d/wifi_direct.hpp"
#include "energy/energy_meter.hpp"
#include "mobility/mobility.hpp"
#include "radio/cellular_modem.hpp"
#include "radio/rrc_profile.hpp"
#include "radio/signaling.hpp"
#include "sim/simulator.hpp"

namespace d2dhb::core {

struct PhoneConfig {
  /// Shared, immutable profiles: a default config points at the
  /// process-wide WCDMA and Table III/IV profiles, and a builder that
  /// needs another one makes it once per world, not once per phone.
  radio::RrcProfilePtr rrc{radio::shared_wcdma_profile()};
  d2d::D2dEnergyProfilePtr d2d_energy{d2d::shared_default_energy_profile()};
  /// Screen-off platform draw — everything that isn't a radio. Excluded
  /// from radio-attributable comparisons; identical across systems.
  MilliAmps baseline_current{40.0};
  /// Owning mobility handoff: Scenario::add_phone adopts the model into
  /// the phone's strip arena and points `mobility_ref` at it, so the
  /// Phone itself never owns a heap allocation. Builders keep writing
  /// `pc.mobility = std::make_unique<...>(...)` as before.
  std::unique_ptr<mobility::MobilityModel> mobility;
  /// Non-owning alternative: the model lives elsewhere (a strip arena
  /// via Scenario::emplace_mobility, a test fixture) and must outlive
  /// the phone. Takes precedence over `mobility` when both are set.
  const mobility::MobilityModel* mobility_ref{nullptr};
};

class Phone {
 public:
  Phone(sim::Simulator& sim, NodeId id, PhoneConfig config,
        d2d::WifiDirectMedium& medium, radio::SignalingCounter& signaling);
  Phone(const Phone&) = delete;
  Phone& operator=(const Phone&) = delete;

  NodeId id() const { return id_; }
  energy::EnergyMeter& meter() { return meter_; }
  radio::CellularModem& modem() { return modem_; }
  d2d::WifiDirectRadio& wifi() { return wifi_; }
  const mobility::MobilityModel& mobility() const { return *mobility_; }

  /// Charge drawn by the cellular radio alone.
  MicroAmpHours cellular_charge() { return modem_.radio_charge(); }
  /// Charge drawn by the Wi-Fi Direct radio alone.
  MicroAmpHours wifi_charge() { return wifi_.radio_charge(); }
  /// Cellular + Wi-Fi Direct: the "heartbeat transmission" energy the
  /// paper's comparisons are about.
  MicroAmpHours radio_charge() { return cellular_charge() + wifi_charge(); }
  /// Everything including the platform baseline.
  MicroAmpHours total_charge() { return meter_.total_charge(); }

 private:
  NodeId id_;
  /// Non-owning: the model lives in the scenario's strip arena (or a
  /// caller-owned fixture) and outlives the phone.
  const mobility::MobilityModel* mobility_;
  energy::EnergyMeter meter_;
  energy::ComponentHandle baseline_;
  radio::CellularModem modem_;
  d2d::WifiDirectRadio wifi_;
};

}  // namespace d2dhb::core

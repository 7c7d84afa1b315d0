#include "radio/cellular_modem.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace d2dhb::radio {

const char* to_string(RrcState s) {
  switch (s) {
    case RrcState::idle: return "IDLE";
    case RrcState::promoting: return "PROMOTING";
    case RrcState::high: return "HIGH";
    case RrcState::transmitting: return "TRANSMITTING";
    case RrcState::low: return "LOW";
  }
  return "?";
}

CellularModem::CellularModem(sim::Simulator& sim, NodeId owner,
                             RrcProfilePtr profile,
                             energy::EnergyMeter& meter,
                             SignalingCounter& signaling)
    : sim_(sim),
      owner_(owner),
      profile_(profile != nullptr
                   ? std::move(profile)
                   : throw std::invalid_argument(
                         "CellularModem: RRC profile is required")),
      meter_(meter),
      component_(meter.register_component("cellular:" + profile_->name,
                                          profile_->idle_current)),
      signaling_(signaling) {
  auto& reg = sim_.metrics();
  const metrics::Labels labels{owner_.value, -1, "cellular"};
  bundles_sent_ctr_ = &reg.counter("cellular.bundles_sent", labels);
  promotions_ctr_ = &reg.counter("rrc.promotions", labels);
  transitions_ctr_ = &reg.counter("rrc.transitions", labels);
  reg.gauge_fn("energy.cellular_uah", labels, *this,
               [](CellularModem& m) { return m.radio_charge().value; });
}

MilliAmps CellularModem::state_current(RrcState s) const {
  switch (s) {
    case RrcState::idle: return profile_->idle_current;
    case RrcState::promoting: return profile_->promotion_current;
    case RrcState::high: return profile_->high_current;
    case RrcState::transmitting:
      return profile_->high_current + profile_->tx_extra_current;
    case RrcState::low: return profile_->low_current;
  }
  return MilliAmps{0};
}

void CellularModem::enter(RrcState next) {
  if (next != state_) transitions_ctr_->inc();
  state_ = next;
  meter_.set_current(component_, state_current(next));
}

void CellularModem::transmit(net::UplinkBundle bundle) {
  queue_.push_back(std::move(bundle));
  switch (state_) {
    case RrcState::idle: {
      // Full RRC connection establishment.
      signaling_.record_sequence(sim_.now(), owner_, profile_->setup_sequence);
      promotions_ctr_->inc();
      enter(RrcState::promoting);
      const std::uint64_t epoch = epoch_;
      sim_.schedule_after(profile_->promotion_delay, [this, epoch] {
        if (epoch != epoch_) return;
        enter(RrcState::high);
        start_next_burst();
      });
      break;
    }
    case RrcState::low: {
      // FACH -> DCH reconfiguration.
      signaling_.record_sequence(sim_.now(), owner_,
                                 profile_->low_to_high_sequence);
      cancel_inactivity();
      enter(RrcState::promoting);
      const std::uint64_t epoch = epoch_;
      sim_.schedule_after(profile_->reconfig_delay, [this, epoch] {
        if (epoch != epoch_) return;
        enter(RrcState::high);
        start_next_burst();
      });
      break;
    }
    case RrcState::high:
      cancel_inactivity();
      start_next_burst();
      break;
    case RrcState::promoting:
    case RrcState::transmitting:
      // Already on the way up or busy — the queued bundle rides along.
      break;
  }
}

void CellularModem::start_next_burst() {
  if (queue_.empty()) {
    if (fast_dormancy_) {
      // SCRI + immediate release: no tails, no inactivity timers.
      signaling_.record(sim_.now(), owner_,
                        L3MessageType::signaling_connection_release_indication);
      signaling_.record_sequence(sim_.now(), owner_,
                                 profile_->release_sequence);
      enter(RrcState::idle);
      return;
    }
    arm_high_inactivity();
    return;
  }
  net::UplinkBundle bundle = std::move(queue_.front());
  queue_.erase(queue_.begin());

  const Bytes payload = bundle.payload_size();
  if (payload > profile_->rb_reconfig_threshold) {
    signaling_.record_sequence(sim_.now(), owner_,
                               profile_->rb_reconfig_sequence);
  }
  const Duration burst = std::max(
      profile_->min_tx_duration,
      seconds(static_cast<double>(payload.value) /
              profile_->uplink_bytes_per_second));
  enter(RrcState::transmitting);
  const std::uint64_t epoch = epoch_;
  sim_.schedule_after(burst, [this, epoch, bundle = std::move(bundle)] {
    if (epoch != epoch_) return;
    bundles_sent_ctr_->inc();
    enter(RrcState::high);
    if (uplink_) uplink_(bundle);
    start_next_burst();
  });
}

void CellularModem::arm_high_inactivity() {
  cancel_inactivity();
  inactivity_event_ = sim_.schedule_after(profile_->high_inactivity, [this] {
    inactivity_event_ = {};
    signaling_.record_sequence(sim_.now(), owner_,
                               profile_->high_to_low_sequence);
    enter(RrcState::low);
    arm_low_inactivity();
  });
}

void CellularModem::arm_low_inactivity() {
  cancel_inactivity();
  inactivity_event_ = sim_.schedule_after(profile_->low_inactivity, [this] {
    inactivity_event_ = {};
    signaling_.record_sequence(sim_.now(), owner_, profile_->release_sequence);
    enter(RrcState::idle);
  });
}

void CellularModem::cancel_inactivity() {
  if (inactivity_event_.valid()) sim_.cancel(inactivity_event_);
  inactivity_event_ = {};
}

void CellularModem::force_idle() {
  cancel_inactivity();
  queue_.clear();
  ++epoch_;  // orphan any in-flight promotion/burst completions
  enter(RrcState::idle);
}

}  // namespace d2dhb::radio

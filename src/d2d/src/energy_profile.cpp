#include "d2d/energy_profile.hpp"

#include <algorithm>
#include <stdexcept>

#include "net/message.hpp"

namespace d2dhb::d2d {

Duration PhaseShape::total_duration() const {
  Duration total{};
  for (const auto& s : segments) total += s.duration;
  return total;
}

double PhaseShape::weighted_seconds() const {
  double sum = 0.0;
  for (const auto& s : segments) sum += s.weight * to_seconds(s.duration);
  return sum;
}

Duration apply_phase(energy::EnergyMeter& meter,
                     energy::ComponentHandle component,
                     const PhaseShape& shape, MicroAmpHours target) {
  const double denom = shape.weighted_seconds();
  if (denom <= 0.0) {
    throw std::invalid_argument("apply_phase: shape has no weighted area");
  }
  // Scale factor k so that sum(k·w_i · d_i)/3.6 = target µAh.
  const double k = target.value * 3.6 / denom;
  // Same-instant ranks are reserved in the order an event-driven phase
  // drew them: the first segment's end and every later segment's start
  // when the phase begins, then each later segment's end (its start
  // event scheduled it) — so the second pass below.
  Duration offset{};
  for (const auto& seg : shape.segments) {
    const MilliAmps current{k * seg.weight};
    if (current.value > 0.0) {
      if (offset == Duration::zero()) {
        meter.add_load(component, current, seg.duration);
      } else {
        meter.add_step(component, offset, meter.reserve_seq(), current);
      }
    }
    offset += seg.duration;
  }
  offset = Duration{};
  for (const auto& seg : shape.segments) {
    const MilliAmps current{k * seg.weight};
    if (current.value > 0.0 && offset != Duration::zero()) {
      meter.add_step(component, offset + seg.duration, meter.reserve_seq(),
                     MilliAmps{-current.value});
    }
    offset += seg.duration;
  }
  return shape.total_duration();
}

MicroAmpHours D2dEnergyProfile::send_charge(Bytes size, Meters d) const {
  double charge = ue_send_reference.value;
  if (size.value > net::kStandardHeartbeatSize.value) {
    charge += per_byte_uah *
              static_cast<double>(size.value - net::kStandardHeartbeatSize.value);
  }
  const double excess = std::max(0.0, d.value - reference_distance.value);
  charge *= 1.0 + distance_factor * excess * excess;
  return MicroAmpHours{charge};
}

MicroAmpHours D2dEnergyProfile::receive_charge(Bytes size) const {
  double charge = relay_receive.value;
  if (size.value > net::kStandardHeartbeatSize.value) {
    charge += per_byte_uah *
              static_cast<double>(size.value - net::kStandardHeartbeatSize.value);
  }
  return MicroAmpHours{charge};
}

const D2dEnergyProfilePtr& shared_default_energy_profile() {
  static const D2dEnergyProfilePtr profile =
      std::make_shared<const D2dEnergyProfile>();
  return profile;
}

const PhaseShape& D2dEnergyProfile::discovery_shape() {
  // Repeated scan bursts over the 8 s window.
  static const PhaseShape shape{{
      {seconds(1.0), 2.0},
      {seconds(1.0), 0.5},
      {seconds(1.0), 2.0},
      {seconds(1.0), 0.5},
      {seconds(1.0), 2.0},
      {seconds(1.0), 0.5},
      {seconds(1.0), 2.0},
      {seconds(1.0), 0.5},
  }};
  return shape;
}

const PhaseShape& D2dEnergyProfile::connection_shape() {
  // GO negotiation exchange, then WPS provisioning plateau.
  static const PhaseShape shape{{
      {seconds(0.5), 3.0},
      {seconds(1.5), 1.5},
      {seconds(0.5), 2.0},
  }};
  return shape;
}

const PhaseShape& D2dEnergyProfile::send_shape() {
  // Fig. 6: current spurts at the moment of transmission, then descends
  // rapidly.
  static const PhaseShape shape{{
      {milliseconds(100), 2.0},  // wake/contend
      {milliseconds(250), 8.0},  // burst
      {milliseconds(500), 1.5},  // decay
  }};
  return shape;
}

const PhaseShape& D2dEnergyProfile::receive_shape() {
  static const PhaseShape shape{{
      {milliseconds(500), 1.2},   // wake + listen
      {milliseconds(300), 4.5},   // receive burst
      {milliseconds(1500), 1.8},  // linger/ack
  }};
  return shape;
}

}  // namespace d2dhb::d2d

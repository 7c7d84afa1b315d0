#include "d2d/energy_profile.hpp"

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <tuple>
#include <utility>

#include "net/message.hpp"

namespace d2dhb::d2d {

PhaseShape::PhaseShape(std::vector<Segment> segments)
    : segments_(std::move(segments)) {
  for (const Segment& seg : segments_) {
    if (seg.duration <= Duration::zero() || !(seg.weight >= 0.0)) {
      throw std::invalid_argument(
          "apply_phase: every segment needs a duration > 0 and a weight >= 0");
    }
    total_duration_ += seg.duration;
    weighted_seconds_ += seg.weight * to_seconds(seg.duration);
  }
  if (weighted_seconds_ <= 0.0) {
    throw std::invalid_argument("apply_phase: shape has no weighted area");
  }
  // Ranks in the order an event-driven phase drew them (see plan()).
  std::uint32_t rank = 0;
  Duration offset{};
  for (const Segment& seg : segments_) {
    if (seg.weight > 0.0) {
      if (offset == Duration::zero()) {
        plan_.lead = seg.weight;
        plan_.steps.push_back({seg.duration, seg.weight, rank++, false});
      } else {
        plan_.steps.push_back({offset, seg.weight, rank++, true});
      }
    }
    offset += seg.duration;
  }
  offset = Duration{};
  for (const Segment& seg : segments_) {
    if (seg.weight > 0.0 && offset != Duration::zero()) {
      plan_.steps.push_back({offset + seg.duration, seg.weight, rank++, false});
    }
    offset += seg.duration;
  }
  using Step = energy::PhasePlan::Step;
  std::sort(plan_.steps.begin(), plan_.steps.end(),
            [](const Step& a, const Step& b) {
              return std::tie(a.offset, a.rank) < std::tie(b.offset, b.rank);
            });
}

Duration apply_phase(energy::EnergyMeter& meter,
                     energy::ComponentHandle component,
                     const PhaseShape& shape, MicroAmpHours target) {
  if (!(target.value >= 0.0)) {
    throw std::invalid_argument("apply_phase: target must be >= 0");
  }
  if (target.value > 0.0) {
    // Scale factor k so that sum(k·w_i · d_i)/3.6 = target µAh.
    meter.charge_phase(component, shape.plan(),
                       target.value * 3.6 / shape.weighted_seconds());
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

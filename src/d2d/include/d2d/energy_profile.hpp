// Wi-Fi Direct per-phase energy calibration.
//
// The paper measures the D2D side of the framework in three phases —
// discovery, connection, forwarding (Table III) — plus the relay's
// per-message receive cost (Table IV). Each phase here is a current
// shape (segments with relative weights) scaled so its integral hits the
// paper's measured charge exactly; the shape only matters for the
// Fig. 6 current trace, the integral for everything else.
//
// A shape is checked and planned once, when it is built: its scale
// denominator, its duration and its meter step plan are constants, so
// charging a phase is one scale product and one pending meter cursor.
#pragma once

#include <memory>
#include <vector>

#include "common/units.hpp"
#include "energy/energy_meter.hpp"

namespace d2dhb::d2d {

/// Piecewise-constant current shape with relative segment weights. A
/// charged phase walks the shape's plan in place, so a shape must
/// outlive the phases charged from it; it is neither copied nor moved.
class PhaseShape {
 public:
  struct Segment {
    Duration duration;  ///< > 0.
    double weight;      ///< Relative current during this segment (>= 0).
  };

  /// Throws std::invalid_argument for a segment whose duration is not
  /// positive or whose weight is negative, or for a shape with no
  /// weighted area.
  explicit PhaseShape(std::vector<Segment> segments);
  PhaseShape(const PhaseShape&) = delete;
  PhaseShape& operator=(const PhaseShape&) = delete;

  const std::vector<Segment>& segments() const { return segments_; }
  Duration total_duration() const { return total_duration_; }
  /// Sum of weight·duration_seconds — the scaling denominator.
  double weighted_seconds() const { return weighted_seconds_; }
  /// The meter steps of one charge. Ranks follow the order in which an
  /// event-driven phase drew them: the first segment's end and each
  /// later segment's start when the phase begins, then each later
  /// segment's end (its start event scheduled it). A zero-weight
  /// segment draws no rank.
  const energy::PhasePlan& plan() const { return plan_; }

 private:
  std::vector<Segment> segments_;
  Duration total_duration_{};
  double weighted_seconds_{0.0};
  energy::PhasePlan plan_;
};

/// Charges `shape` on `component` as one pending meter cursor (no
/// events), with currents scaled so the phase integrates to exactly
/// `target`; a zero target charges nothing and reserves no seq, a
/// negative one throws std::invalid_argument. Returns the phase's total
/// duration.
Duration apply_phase(energy::EnergyMeter& meter,
                     energy::ComponentHandle component,
                     const PhaseShape& shape, MicroAmpHours target);
/// The charged phase keeps pointing at the shape: no temporaries.
Duration apply_phase(energy::EnergyMeter& meter,
                     energy::ComponentHandle component,
                     const PhaseShape&& shape, MicroAmpHours target) = delete;

/// All Wi-Fi Direct calibration constants. Defaults reproduce the
/// paper's Tables III and IV at the 1 m reference distance.
struct D2dEnergyProfile {
  // --- Table III: per-phase charge ---
  MicroAmpHours ue_discovery{132.24};
  MicroAmpHours relay_discovery{122.50};
  MicroAmpHours ue_connection{63.74};
  MicroAmpHours relay_connection{60.29};
  MicroAmpHours ue_send_reference{73.09};   ///< Per message at 1 m, 54 B.
  // --- Table IV: linear receive cost, ~131.3 µAh per message ---
  MicroAmpHours relay_receive{131.3};

  /// Idle draw while at least one D2D link is connected (power-save
  /// client keepalives). Small but not zero.
  MilliAmps idle_connected{1.0};

  /// Tiny control frames (feedback acks): per-frame charge on each end.
  MicroAmpHours control_send{4.0};
  MicroAmpHours control_receive{4.0};

  // --- Distance model (Fig. 12) ---
  /// Send cost scales as 1 + distance_factor·(d - reference)² beyond the
  /// 1 m reference: at 15 m a send costs ~12× the reference, crossing
  /// the cellular per-heartbeat cost well before that.
  Meters reference_distance{1.0};
  double distance_factor{0.0577};

  // --- Size model (Fig. 13) ---
  /// Marginal charge per payload byte beyond the 54 B standard size.
  /// Tiny: a 5× message costs only ~11 µAh more ("almost constant").
  double per_byte_uah{0.05};

  // --- Timing ---
  Duration discovery_scan{seconds(8)};
  Duration connection_setup{seconds(2.5)};
  Duration transfer_latency{milliseconds(350)};  ///< Send start -> delivery.

  /// Send-phase charge for a payload of `size` at distance `d`.
  MicroAmpHours send_charge(Bytes size, Meters d) const;
  /// Receive-phase charge for a payload of `size` (distance-independent;
  /// the receiver's radio listens at fixed gain).
  MicroAmpHours receive_charge(Bytes size) const;

  // --- Current shapes (scaled to the charges above when applied) ---
  // Constants built once per process: charging a phase allocates
  // nothing.
  static const PhaseShape& discovery_shape();
  static const PhaseShape& connection_shape();
  static const PhaseShape& send_shape();  ///< Spike + fast decay (Fig. 6).
  static const PhaseShape& receive_shape();
};

/// A profile is per-world configuration, never per-phone state: every
/// radio that runs a given profile points at one immutable instance.
using D2dEnergyProfilePtr = std::shared_ptr<const D2dEnergyProfile>;

/// The one process-wide default (Table III/IV) profile that a default
/// PhoneConfig shares.
const D2dEnergyProfilePtr& shared_default_energy_profile();

}  // namespace d2dhb::d2d

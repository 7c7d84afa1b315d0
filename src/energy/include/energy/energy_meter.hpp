// Per-device energy accounting.
//
// Replaces the paper's Monsoon Power Monitor (Section V-A): each device
// owns an EnergyMeter whose components (cellular modem, Wi-Fi Direct
// radio, platform baseline) report piecewise-constant current draws. The
// meter integrates charge in µAh at the nominal 3.7 V supply, exactly the
// quantity the paper reports in Tables III and IV.
//
// Transient loads are computed, not scheduled. Each component keeps a
// short list of pending entries: one cursor per charged phase, walking
// the phase's step plan (built once per current shape, PhasePlan), and
// one lone step per transient load's end. Every read settles through
// the steps that lie before the read point, in (time, seq) order across
// the entries, integrating up to each one. A step's seq is reserved from
// the kernel when it is charged, exactly as an event scheduled then
// would draw it: a phase reserves one contiguous block, and its rank j
// is block.first + j·stride on the kernel's lane. A read made while
// event R executes applies only the steps that precede (now, seq(R)).
// So every read, a same-instant one included, sees the draw the
// event-driven meter showed — with no events.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/units.hpp"
#include "sim/simulator.hpp"

namespace d2dhb::energy {

/// Opaque handle to a registered component of an EnergyMeter.
struct ComponentHandle {
  std::size_t index{SIZE_MAX};
  constexpr bool valid() const { return index != SIZE_MAX; }
};

/// The current steps of one phase shape, built once and shared by every
/// charge of it (d2d::PhaseShape builds one). Charged at t with scale k,
/// the phase adds k·lead at t, then each step's ±k·weight at
/// t + offset, ranked `rank` within the seq block the charge reserves.
struct PhasePlan {
  struct Step {
    Duration offset;  ///< > 0: from the charge.
    double weight;
    std::uint32_t rank;
    bool up;  ///< +k·weight (a segment starts) or -k·weight (it ends).
  };
  double lead{0.0};  ///< Weight that starts at the charge itself.
  /// Sorted by (offset, rank); ranks are 0..steps.size()-1.
  std::vector<Step> steps;
};

class EnergyMeter {
 public:
  explicit EnergyMeter(sim::Simulator& sim) : sim_(sim) {}
  EnergyMeter(const EnergyMeter&) = delete;
  EnergyMeter& operator=(const EnergyMeter&) = delete;

  /// Registers a named component drawing `initial` from now on.
  ComponentHandle register_component(std::string name,
                                     MilliAmps initial = MilliAmps{0});

  /// Sets a component's constant draw; charge since the previous change
  /// is integrated first. Pending steps still apply on top of it.
  void set_current(ComponentHandle component, MilliAmps current);

  /// Shifts a component's draw by `delta` from now on: a step that
  /// stays until shifted back.
  void add_current(ComponentHandle component, MilliAmps delta);

  /// Adds a transient load on top of the component's current draw for
  /// `duration` (> 0); its end is a pending step. Overlapping loads
  /// stack.
  void add_load(ComponentHandle component, MilliAmps extra, Duration duration);

  /// Charges one phase of `plan` scaled by `scale` (> 0): adds
  /// scale·plan.lead now and keeps one pending cursor over plan.steps,
  /// whose seqs are one block reserved now. `plan` must outlive the
  /// phase's last step.
  void charge_phase(ComponentHandle component, const PhasePlan& plan,
                    double scale);

  /// Reserves the rank among same-instant events that an event
  /// scheduled right now would get, for a later add_step().
  std::uint64_t reserve_seq() { return sim_.reserve_seq(); }

  /// Queues a step of `delta` at `delay` (> 0) from now, ranked `seq`
  /// (from reserve_seq()) among the events of that instant.
  void add_step(ComponentHandle component, Duration delay, std::uint64_t seq,
                MilliAmps delta);

  /// Sum of all component draws right now.
  MilliAmps instantaneous();
  MilliAmps component_current(ComponentHandle component);

  /// Pending-entry slots a component holds allocated: one per charged
  /// phase or lone step still pending, 0 once they have all drained.
  std::size_t pending_capacity(ComponentHandle component) const;

  /// Total charge consumed since construction, up to now.
  MicroAmpHours total_charge();
  MicroAmpHours component_charge(ComponentHandle component);
  const std::string& component_name(ComponentHandle component) const;
  std::size_t component_count() const { return components_.size(); }

  /// Interval accounting, mirroring how the paper attributes energy to a
  /// phase: snapshot at phase start, subtract at phase end.
  struct Checkpoint {
    MicroAmpHours total;
  };
  Checkpoint checkpoint() { return Checkpoint{total_charge()}; }
  MicroAmpHours charge_since(const Checkpoint& cp) {
    return total_charge() - cp.total;
  }

  /// Per-component breakdown: name, present current, accumulated charge,
  /// and share of the total — the "where did the battery go" view.
  void print_report(std::ostream& os);

 private:
  /// A pending cursor: plan->steps[next...] of a phase charged at
  /// `start` with scale `scale`, rank j drawn as first_seq + j·stride.
  /// With a null plan, one lone step of `scale` mA at `start`, ranked
  /// first_seq.
  struct Pending {
    TimePoint start;
    std::uint64_t first_seq;
    double scale;
    const PhasePlan* plan;
    std::uint32_t stride;  ///< Kernel lane stride (at most kMaxShards).
    std::uint32_t next;

    TimePoint at() const {
      return plan ? start + plan->steps[next].offset : start;
    }
    std::uint64_t seq() const {
      return plan ? first_seq + plan->steps[next].rank * std::uint64_t{stride}
                  : first_seq;
    }
    MilliAmps delta() const;
  };
  struct Component {
    std::string name;
    MilliAmps current;
    MicroAmpHours accumulated;
    TimePoint last_update;
    /// Pending entries, in no particular order; holds no storage while
    /// none are pending.
    std::vector<Pending> pending;
  };
  /// Where a read sits in the event order: steps before (now, seq) are
  /// due. Between events seq is UINT64_MAX, so every step at now is.
  struct ReadPoint {
    TimePoint now;
    std::uint64_t seq;
  };

  ReadPoint read_point() const;
  /// Integrates the component's draw up to `t`.
  static void integrate_to(Component& c, TimePoint t);
  /// Applies the steps due at `at` in (time, seq) order across the
  /// component's pending entries, integrating up to each one.
  static void apply_due(Component& c, ReadPoint at);
  /// apply_due, then integrates up to the read point.
  static void settle(Component& c, ReadPoint at);

  sim::Simulator& sim_;
  std::vector<Component> components_;
};

}  // namespace d2dhb::energy

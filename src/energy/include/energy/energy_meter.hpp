// Per-device energy accounting.
//
// Replaces the paper's Monsoon Power Monitor (Section V-A): each device
// owns an EnergyMeter whose components (cellular modem, Wi-Fi Direct
// radio, platform baseline) report piecewise-constant current draws. The
// meter integrates charge in µAh at the nominal 3.7 V supply, exactly the
// quantity the paper reports in Tables III and IV.
//
// Transient loads are computed, not scheduled: each component keeps a
// (time, seq)-sorted list of pending current steps, and every read
// settles through the steps that lie before the read point, integrating
// up to each one. A step's seq is reserved from the kernel when the
// step is inserted, exactly as an event scheduled then would draw it,
// and a read made while event R executes applies only the steps that
// precede (now, seq(R)). So every read, a same-instant one included,
// sees the draw the event-driven meter showed — with no events.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <memory>
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

  /// Step slots a component holds allocated (0 once its pending steps
  /// have drained).
  std::size_t step_capacity(ComponentHandle component) const;

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
  /// A pending change of a component's draw by `delta` at `at`.
  struct Step {
    TimePoint at;
    std::uint64_t seq;
    MilliAmps delta;
  };
  struct Component {
    std::string name;
    MilliAmps current;
    MicroAmpHours accumulated;
    TimePoint last_update;
    /// Pending steps sorted by (at, seq); null while none are pending
    /// (a pointer, not an inline vector: most components of a large
    /// world have nothing pending, so this keeps them 16 bytes smaller).
    std::unique_ptr<std::vector<Step>> steps;
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
  /// Applies the steps due at `at`, integrating up to each one.
  static void apply_due(Component& c, ReadPoint at);
  /// apply_due, then integrates up to the read point.
  static void settle(Component& c, ReadPoint at);

  sim::Simulator& sim_;
  std::vector<Component> components_;
};

}  // namespace d2dhb::energy

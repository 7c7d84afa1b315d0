#include "d2d/energy_profile.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "net/message.hpp"
#include "sim/simulator.hpp"

namespace d2dhb::d2d {
namespace {

// The event-driven meter the lazy EnergyMeter replaced, kept only here
// as its oracle: a transient load's end, and each later phase segment's
// start, is a scheduled event that settles the component and steps its
// draw.
class EventDrivenMeter {
 public:
  explicit EventDrivenMeter(sim::Simulator& sim) : sim_(sim) {}

  energy::ComponentHandle register_component(std::string /*name*/,
                                             MilliAmps initial = {}) {
    components_.push_back(Component{initial, {}, sim_.now()});
    return energy::ComponentHandle{components_.size() - 1};
  }
  void set_current(energy::ComponentHandle c, MilliAmps current) {
    settle(c).current = current;
  }
  void add_load(energy::ComponentHandle c, MilliAmps extra, Duration d) {
    settle(c).current += extra;
    sim_.schedule_after(d, [this, c, extra] { settle(c).current -= extra; });
  }
  void apply_phase(energy::ComponentHandle c, const PhaseShape& shape,
                   MicroAmpHours target) {
    const double k = target.value * 3.6 / shape.weighted_seconds();
    Duration offset{};
    for (const auto& seg : shape.segments()) {
      const MilliAmps current{k * seg.weight};
      if (current.value > 0.0) {
        if (offset == Duration::zero()) {
          add_load(c, current, seg.duration);
        } else {
          sim_.schedule_after(offset, [this, c, current, d = seg.duration] {
            add_load(c, current, d);
          });
        }
      }
      offset += seg.duration;
    }
  }
  MilliAmps component_current(energy::ComponentHandle c) {
    return components_[c.index].current;
  }
  MilliAmps instantaneous() {
    MilliAmps sum;
    for (const auto& c : components_) sum += c.current;
    return sum;
  }
  MicroAmpHours component_charge(energy::ComponentHandle c) {
    return settle(c).accumulated;
  }

 private:
  struct Component {
    MilliAmps current;
    MicroAmpHours accumulated;
    TimePoint last_update;
  };
  Component& settle(energy::ComponentHandle handle) {
    Component& c = components_[handle.index];
    if (sim_.now() > c.last_update) {
      c.accumulated += integrate(c.current, sim_.now() - c.last_update);
      c.last_update = sim_.now();
    }
    return c;
  }

  sim::Simulator& sim_;
  std::vector<Component> components_;
};

/// The cursor meter behind the oracle's interface.
struct LazyMeter {
  explicit LazyMeter(sim::Simulator& sim) : meter(sim) {}
  energy::ComponentHandle register_component(std::string name,
                                             MilliAmps initial = {}) {
    return meter.register_component(std::move(name), initial);
  }
  void set_current(energy::ComponentHandle c, MilliAmps current) {
    meter.set_current(c, current);
  }
  void add_load(energy::ComponentHandle c, MilliAmps extra, Duration d) {
    meter.add_load(c, extra, d);
  }
  void apply_phase(energy::ComponentHandle c, const PhaseShape& shape,
                   MicroAmpHours target) {
    d2d::apply_phase(meter, c, shape, target);
  }
  MilliAmps component_current(energy::ComponentHandle c) {
    return meter.component_current(c);
  }
  MilliAmps instantaneous() { return meter.instantaneous(); }
  MicroAmpHours component_charge(energy::ComponentHandle c) {
    return meter.component_charge(c);
  }
  energy::EnergyMeter meter;
};

/// The step meter the cursor meter replaced, kept only here as its
/// bit-exact reference: a phase expands into 2n-1 pending add_step()s,
/// ranked one reserve_seq() at a time — the first segment's end and the
/// later starts first, then the later ends.
struct StepMeter : LazyMeter {
  using LazyMeter::LazyMeter;
  void apply_phase(energy::ComponentHandle c, const PhaseShape& shape,
                   MicroAmpHours target) {
    const double k = target.value * 3.6 / shape.weighted_seconds();
    Duration offset{};
    for (const auto& seg : shape.segments()) {
      const MilliAmps current{k * seg.weight};
      if (current.value > 0.0) {
        if (offset == Duration::zero()) {
          meter.add_load(c, current, seg.duration);
        } else {
          meter.add_step(c, offset, meter.reserve_seq(), current);
        }
      }
      offset += seg.duration;
    }
    offset = Duration{};
    for (const auto& seg : shape.segments()) {
      const MilliAmps current{k * seg.weight};
      if (current.value > 0.0 && offset != Duration::zero()) {
        meter.add_step(c, offset + seg.duration, meter.reserve_seq(),
                       MilliAmps{-current.value});
      }
      offset += seg.duration;
    }
  }
};

TEST(PhaseShape, TotalsAndWeights) {
  const PhaseShape shape{{{seconds(1), 2.0}, {seconds(3), 0.5}}};
  EXPECT_EQ(shape.total_duration(), seconds(4));
  EXPECT_DOUBLE_EQ(shape.weighted_seconds(), 2.0 * 1.0 + 0.5 * 3.0);
}

TEST(ApplyPhase, IntegratesToExactTarget) {
  sim::Simulator sim;
  energy::EnergyMeter meter{sim};
  const auto c = meter.register_component("wifi");
  const PhaseShape& shape = D2dEnergyProfile::send_shape();
  const Duration total =
      apply_phase(meter, c, shape, MicroAmpHours{73.09});
  EXPECT_EQ(total, shape.total_duration());
  sim.run_until(sim.now() + total + seconds(1));
  EXPECT_NEAR(meter.component_charge(c).value, 73.09, 1e-9);
}

TEST(ApplyPhase, RejectsZeroAreaShape) {
  EXPECT_THROW(PhaseShape({}), std::invalid_argument);
  EXPECT_THROW(PhaseShape({{seconds(1), 0.0}, {seconds(2), 0.0}}),
               std::invalid_argument);
}

// Runs `fn` and expects a std::invalid_argument that names apply_phase.
template <typename F>
void expect_apply_phase_error(F fn) {
  try {
    fn();
    ADD_FAILURE() << "no std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(std::string(e.what()).rfind("apply_phase:", 0), 0u) << e.what();
  }
}

TEST(ApplyPhase, ShapeIsCheckedOnceWhenBuilt) {
  // A zero-duration first segment, a zero-duration later one, a
  // negative duration and a negative weight: one error, at build.
  expect_apply_phase_error(
      [] { PhaseShape({{Duration::zero(), 1.0}, {seconds(1), 1.0}}); });
  expect_apply_phase_error(
      [] { PhaseShape({{seconds(1), 1.0}, {Duration::zero(), 1.0}}); });
  expect_apply_phase_error([] { PhaseShape({{milliseconds(-5), 1.0}}); });
  expect_apply_phase_error(
      [] { PhaseShape({{seconds(1), 2.0}, {seconds(1), -0.5}}); });
  // A zero-weight segment is fine and reserves no rank.
  const PhaseShape gap{
      {{seconds(1), 1.0}, {seconds(1), 0.0}, {seconds(1), 1.0}}};
  EXPECT_EQ(gap.plan().steps.size(), 3u);
  EXPECT_DOUBLE_EQ(gap.plan().lead, 1.0);
}

TEST(ApplyPhase, PlanRanksFollowTheEventDrivenDrawOrder) {
  // discovery: 8 segments, 15 steps; rank 0 is the first segment's end,
  // ranks 1..7 the later starts, ranks 8..14 the later ends.
  const energy::PhasePlan& plan = D2dEnergyProfile::discovery_shape().plan();
  ASSERT_EQ(plan.steps.size(), 15u);
  EXPECT_DOUBLE_EQ(plan.lead, 2.0);
  EXPECT_EQ(plan.steps[0].offset, seconds(1));
  EXPECT_EQ(plan.steps[0].rank, 0u);
  EXPECT_FALSE(plan.steps[0].up);
  EXPECT_EQ(plan.steps[1].offset, seconds(1));
  EXPECT_EQ(plan.steps[1].rank, 1u);
  EXPECT_TRUE(plan.steps[1].up);
  EXPECT_EQ(plan.steps[2].offset, seconds(2));
  EXPECT_EQ(plan.steps[2].rank, 2u);
  EXPECT_EQ(plan.steps[3].rank, 8u);  // the second segment's end
  EXPECT_FALSE(plan.steps[3].up);
  EXPECT_EQ(plan.steps.back().offset, seconds(8));
  EXPECT_EQ(plan.steps.back().rank, 14u);
}

TEST(ApplyPhase, NegativeTargetThrowsAndZeroTargetIsANoOp) {
  sim::Simulator sim;
  energy::EnergyMeter meter{sim};
  const auto c = meter.register_component("wifi", MilliAmps{3.0});
  const PhaseShape& shape = D2dEnergyProfile::send_shape();
  expect_apply_phase_error(
      [&] { apply_phase(meter, c, shape, MicroAmpHours{-1.0}); });
  const std::uint64_t before = sim.reserve_seq();
  EXPECT_EQ(apply_phase(meter, c, shape, MicroAmpHours{0.0}),
            shape.total_duration());
  EXPECT_EQ(sim.reserve_seq(), before + 1);  // no seq reserved between
  EXPECT_EQ(meter.pending_capacity(c), 0u);
  EXPECT_DOUBLE_EQ(meter.component_current(c).value, 3.0);
  sim.run_until(TimePoint{} + seconds(36));
  EXPECT_NEAR(meter.component_charge(c).value, 30.0, 1e-9);
}

TEST(ApplyPhase, SendShapeSpikesThenDecays) {
  sim::Simulator sim;
  energy::EnergyMeter meter{sim};
  const auto c = meter.register_component("wifi");
  apply_phase(meter, c, D2dEnergyProfile::send_shape(),
              MicroAmpHours{73.09});
  // Sample the burst (inside 100..350 ms) and the decay (>350 ms).
  double burst = 0.0, decay = 0.0;
  sim.schedule_after(milliseconds(200),
                     [&] { burst = meter.component_current(c).value; });
  sim.schedule_after(milliseconds(500),
                     [&] { decay = meter.component_current(c).value; });
  sim.run();
  EXPECT_GT(burst, 500.0);  // Fig. 6 spike
  EXPECT_LT(decay, 200.0);  // rapid descent
  EXPECT_GT(decay, 0.0);
}

// One scripted meter operation. Loads and phases start on a 50 ms grid,
// and every shape segment is a multiple of 50 ms, so steps land on the
// grid too; set_current runs 1 µs off it, never at a step's instant.
struct MeterOp {
  enum Kind { load, phase, set, read } kind{load};
  TimePoint at{};
  std::size_t component{0};
  double amount{0.0};   ///< mA for load/set, µAh for phase.
  Duration duration{};  ///< load only.
  int shape{0};         ///< phase only.
  bool chained{false};  ///< Scheduled by the previous op, not up front.
};

std::vector<MeterOp> random_script(std::uint64_t seed) {
  Rng rng{seed};
  std::vector<MeterOp> ops(120);
  for (auto& op : ops) {
    op.kind = static_cast<MeterOp::Kind>(rng.uniform_int(0, 3));
    const auto slot = static_cast<std::int64_t>(rng.uniform_int(0, 400));
    op.at = TimePoint{} + milliseconds(50 * slot);
    const bool read_off_grid = op.kind == MeterOp::read && rng.chance(0.5);
    if (op.kind == MeterOp::set || read_off_grid) op.at += microseconds(1);
    op.component = rng.uniform_int(0, 2);
    op.amount = rng.uniform(1.0, 300.0);
    const auto length = static_cast<std::int64_t>(rng.uniform_int(1, 40));
    op.duration = milliseconds(50 * length);
    op.shape = static_cast<int>(rng.uniform_int(0, 3));
    op.chained = rng.chance(0.5);
  }
  std::stable_sort(
      ops.begin(), ops.end(),
      [](const MeterOp& a, const MeterOp& b) { return a.at < b.at; });
  return ops;
}

const PhaseShape& script_shape(int shape) {
  switch (shape) {
    case 0:
      return D2dEnergyProfile::discovery_shape();
    case 1:
      return D2dEnergyProfile::connection_shape();
    case 2:
      return D2dEnergyProfile::send_shape();
    default:
      return D2dEnergyProfile::receive_shape();
  }
}

struct Reading {
  TimePoint at{};
  bool exact{true};  ///< Read order matches the oracle's (see run_script).
  MilliAmps current{};
  std::vector<MicroAmpHours> charges;
};

template <typename M>
Reading read_all(const sim::Simulator& sim, M& meter,
                 const std::vector<energy::ComponentHandle>& components) {
  Reading r;
  r.at = sim.now();
  r.current = meter.instantaneous();
  for (const auto handle : components) {
    r.charges.push_back(meter.component_charge(handle));
  }
  return r;
}

// Runs `ops` on a fresh world of `kernels` kernels with meter type M,
// every op on kernel `shard` (whose seq lane has stride `kernels`).
// Half the ops are scheduled up front, half by the op before them, so
// read and step sequence numbers interleave. A chained on-grid read may
// sit between steps whose ranks the event-driven oracle drew mid-phase,
// so against it only its charges are compared; every other read must
// also see the oracle's draw.
template <typename M>
std::vector<Reading> run_script(const std::vector<MeterOp>& ops,
                                std::size_t kernels = 1,
                                std::uint32_t shard = 0) {
  sim::Simulator sim{kernels};
  const sim::ShardGuard home(sim, shard);
  M meter{sim};
  std::vector<energy::ComponentHandle> components;
  for (int i = 0; i < 3; ++i) {
    components.push_back(meter.register_component("c", MilliAmps{5.0 * i}));
  }
  std::vector<Reading> readings;
  std::function<void(std::size_t)> perform = [&](std::size_t i) {
    const MeterOp& op = ops[i];
    const auto c = components[op.component];
    switch (op.kind) {
      case MeterOp::load:
        meter.add_load(c, MilliAmps{op.amount}, op.duration);
        break;
      case MeterOp::phase:
        meter.apply_phase(c, script_shape(op.shape), MicroAmpHours{op.amount});
        break;
      case MeterOp::set:
        meter.set_current(c, MilliAmps{op.amount / 10.0});
        break;
      case MeterOp::read:
        readings.push_back(read_all(sim, meter, components));
        readings.back().exact =
            !op.chained || op.at.time_since_epoch().count() % 1000 != 0;
        break;
    }
    if (i + 1 < ops.size() && ops[i + 1].chained) {
      sim.schedule_at(ops[i + 1].at, [&perform, i] { perform(i + 1); });
    }
  };
  for (std::size_t i = 0; i < ops.size(); ++i) {
    if (!ops[i].chained || i == 0) {
      sim.schedule_at(ops[i].at, [&perform, i] { perform(i); });
    }
  }
  sim.run_until(TimePoint{} + seconds(40));
  readings.push_back(read_all(sim, meter, components));
  return readings;
}

bool near_rel(double a, double b, double rel) {
  return std::abs(a - b) <= rel * std::max(std::abs(a), std::abs(b));
}

TEST(LazyMeter, AgreesWithEventDrivenOracleOnRandomScripts) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    const auto ops = random_script(seed);
    const auto lazy = run_script<LazyMeter>(ops);
    const auto oracle = run_script<EventDrivenMeter>(ops);
    ASSERT_EQ(lazy.size(), oracle.size()) << "seed " << seed;
    for (std::size_t i = 0; i < lazy.size(); ++i) {
      const Reading& a = lazy[i];
      const Reading& b = oracle[i];
      ASSERT_EQ(a.at, b.at);
      for (std::size_t c = 0; c < a.charges.size(); ++c) {
        EXPECT_TRUE(near_rel(a.charges[c].value, b.charges[c].value, 1e-12))
            << "seed " << seed << " read " << i << " component " << c
            << ": " << a.charges[c].value << " vs " << b.charges[c].value;
      }
      if (a.exact) {
        EXPECT_TRUE(near_rel(a.current.value, b.current.value, 1e-12))
            << "seed " << seed << " read " << i << ": "
            << a.current.value << " vs " << b.current.value;
      }
    }
  }
}

// The cursor meter against the step reference it replaced, bit for bit,
// on kernel 2 of 3: every rank is first + j·3, so a cursor that ranked
// its steps off the kernel's lane would reorder same-instant reads.
TEST(LazyMeter, CursorsMatchStepReferenceBitwiseOnThreeKernels) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    const auto ops = random_script(seed);
    const auto cursor = run_script<LazyMeter>(ops, 3, 2);
    const auto steps = run_script<StepMeter>(ops, 3, 2);
    ASSERT_EQ(cursor.size(), steps.size()) << "seed " << seed;
    for (std::size_t i = 0; i < cursor.size(); ++i) {
      const Reading& a = cursor[i];
      const Reading& b = steps[i];
      ASSERT_EQ(a.at, b.at);
      EXPECT_EQ(a.current.value, b.current.value)
          << "seed " << seed << " read " << i;
      ASSERT_EQ(a.charges.size(), b.charges.size());
      for (std::size_t c = 0; c < a.charges.size(); ++c) {
        EXPECT_EQ(a.charges[c].value, b.charges[c].value)
            << "seed " << seed << " read " << i << " component " << c;
      }
    }
  }
}

// A sampler tick that lands exactly on a segment boundary must see what
// the event-driven meter showed there — here the first segment still,
// because the tick's rank was drawn before the phase began. A meter
// that applied every step at or before now would show the second.
template <typename M>
std::vector<double> boundary_samples() {
  sim::Simulator sim;
  M meter{sim};
  const auto c = meter.register_component("wifi", MilliAmps{2.0});
  std::vector<double> samples;
  sim::PeriodicTimer sampler(sim, milliseconds(100), [&] {
    samples.push_back(meter.instantaneous().value);
  });
  sampler.start();
  // Scheduled at 0.95 s, the phase event runs after the 1.0 s tick,
  // which has already drawn the 1.1 s tick's rank.
  sim.schedule_at(TimePoint{} + milliseconds(950), [&] {
    sim.schedule_after(milliseconds(50), [&] {
      meter.apply_phase(c, D2dEnergyProfile::send_shape(),
                        MicroAmpHours{73.09});
    });
  });
  sim.run_until(TimePoint{} + milliseconds(2500));
  return samples;
}

TEST(LazyMeter, BoundarySampleMatchesEventDrivenValue) {
  const auto lazy = boundary_samples<LazyMeter>();
  const auto oracle = boundary_samples<EventDrivenMeter>();
  ASSERT_EQ(lazy.size(), oracle.size());
  for (std::size_t i = 0; i < lazy.size(); ++i) {
    EXPECT_EQ(lazy[i], oracle[i]) << "sample " << i;
  }
  // Samples 9 and 10 are t = 1.0 s and 1.1 s: the 1.0 s tick ran before
  // the phase began; the 1.1 s one still sees the first (wake) segment.
  const PhaseShape& shape = D2dEnergyProfile::send_shape();
  const double k = 73.09 * 3.6 / shape.weighted_seconds();
  ASSERT_GT(lazy.size(), 11u);
  EXPECT_DOUBLE_EQ(lazy[9], 2.0);
  EXPECT_DOUBLE_EQ(lazy[10], 2.0 + k * shape.segments()[0].weight);
}

TEST(LazyMeter, PhaseStepsDrainAndReleaseStorage) {
  sim::Simulator sim;
  energy::EnergyMeter meter{sim};
  const auto c = meter.register_component("wifi");
  const PhaseShape& discovery = D2dEnergyProfile::discovery_shape();
  // A discovery phase's 15 steps are one pending cursor, not 15 steps.
  apply_phase(meter, c, discovery, MicroAmpHours{132.24});
  EXPECT_EQ(sim.pending_events(), 0u);
  EXPECT_EQ(meter.pending_capacity(c), 1u);
  // A second phase overlapping the first is a second cursor.
  sim.run_until(TimePoint{} + milliseconds(2500));
  apply_phase(meter, c, discovery, MicroAmpHours{132.24});
  EXPECT_EQ(meter.pending_capacity(c), 2u);
  sim.run_until(TimePoint{} + seconds(11));
  EXPECT_NEAR(meter.component_charge(c).value, 2 * 132.24, 1e-9);
  EXPECT_NEAR(meter.component_current(c).value, 0.0, 1e-9);
  EXPECT_EQ(meter.pending_capacity(c), 0u);  // drained: no storage
}

TEST(D2dEnergyProfile, DefaultsMatchTableIII) {
  const D2dEnergyProfile p;
  EXPECT_DOUBLE_EQ(p.ue_discovery.value, 132.24);
  EXPECT_DOUBLE_EQ(p.relay_discovery.value, 122.50);
  EXPECT_DOUBLE_EQ(p.ue_connection.value, 63.74);
  EXPECT_DOUBLE_EQ(p.relay_connection.value, 60.29);
  EXPECT_DOUBLE_EQ(p.ue_send_reference.value, 73.09);
}

TEST(D2dEnergyProfile, SendChargeAtReferenceDistance) {
  const D2dEnergyProfile p;
  EXPECT_NEAR(
      p.send_charge(net::kStandardHeartbeatSize, p.reference_distance).value,
      73.09, 1e-9);
}

TEST(D2dEnergyProfile, SendChargeGrowsQuadraticallyWithDistance) {
  const D2dEnergyProfile p;
  const double at1 = p.send_charge(Bytes{54}, Meters{1.0}).value;
  const double at5 = p.send_charge(Bytes{54}, Meters{5.0}).value;
  const double at10 = p.send_charge(Bytes{54}, Meters{10.0}).value;
  const double at15 = p.send_charge(Bytes{54}, Meters{15.0}).value;
  EXPECT_LT(at1, at5);
  EXPECT_LT(at5, at10);
  EXPECT_LT(at10, at15);
  // Fig. 12: at 15 m a D2D send costs several times the reference —
  // beyond the cellular break-even.
  EXPECT_GT(at15, 800.0);
  // Quadratic ratio check: (at10-at1)/(at5-at1) ≈ (9²)/(4²).
  EXPECT_NEAR((at10 - at1) / (at5 - at1), 81.0 / 16.0, 0.01);
}

TEST(D2dEnergyProfile, SendChargeBelowReferenceClamped) {
  const D2dEnergyProfile p;
  EXPECT_DOUBLE_EQ(p.send_charge(Bytes{54}, Meters{0.2}).value, 73.09);
}

TEST(D2dEnergyProfile, SizeHasMinorEffect) {
  // Fig. 13: 1x..5x the standard size stays "almost constant".
  const D2dEnergyProfile p;
  const double x1 = p.send_charge(Bytes{54}, Meters{1.0}).value;
  const double x5 = p.send_charge(Bytes{270}, Meters{1.0}).value;
  EXPECT_GT(x5, x1);
  EXPECT_LT((x5 - x1) / x1, 0.2);  // < 20 % growth across 5x size
}

TEST(D2dEnergyProfile, ReceiveChargeMatchesTableIvSlope) {
  const D2dEnergyProfile p;
  EXPECT_NEAR(p.receive_charge(Bytes{54}).value, 131.3, 1e-9);
}

}  // namespace
}  // namespace d2dhb::d2d

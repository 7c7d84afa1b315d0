#include "energy/energy_meter.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "sim/simulator.hpp"

namespace d2dhb::energy {
namespace {

TEST(EnergyMeter, IntegratesConstantDraw) {
  sim::Simulator sim;
  EnergyMeter meter{sim};
  const auto c = meter.register_component("radio", MilliAmps{360.0});
  sim.run_until(TimePoint{} + seconds(10));
  // 360 mA · 10 s / 3.6 = 1000 µAh.
  EXPECT_NEAR(meter.total_charge().value, 1000.0, 1e-9);
  EXPECT_NEAR(meter.component_charge(c).value, 1000.0, 1e-9);
}

TEST(EnergyMeter, MultipleComponentsSum) {
  sim::Simulator sim;
  EnergyMeter meter{sim};
  meter.register_component("baseline", MilliAmps{40.0});
  meter.register_component("radio", MilliAmps{320.0});
  sim.run_until(TimePoint{} + seconds(36));
  EXPECT_NEAR(meter.total_charge().value, 3600.0, 1e-9);
  EXPECT_EQ(meter.component_count(), 2u);
}

TEST(EnergyMeter, SetCurrentSplitsIntegration) {
  sim::Simulator sim;
  EnergyMeter meter{sim};
  const auto c = meter.register_component("radio", MilliAmps{100.0});
  sim.run_until(TimePoint{} + seconds(18));  // 100·18/3.6 = 500
  meter.set_current(c, MilliAmps{200.0});
  sim.run_until(TimePoint{} + seconds(36));  // + 200·18/3.6 = 1000
  EXPECT_NEAR(meter.component_charge(c).value, 1500.0, 1e-9);
}

TEST(EnergyMeter, InstantaneousReflectsAllComponents) {
  sim::Simulator sim;
  EnergyMeter meter{sim};
  const auto a = meter.register_component("a", MilliAmps{40.0});
  meter.register_component("b", MilliAmps{60.0});
  EXPECT_DOUBLE_EQ(meter.instantaneous().value, 100.0);
  meter.set_current(a, MilliAmps{10.0});
  EXPECT_DOUBLE_EQ(meter.instantaneous().value, 70.0);
}

TEST(EnergyMeter, AddLoadDecaysAfterDuration) {
  sim::Simulator sim;
  EnergyMeter meter{sim};
  const auto c = meter.register_component("radio", MilliAmps{0.0});
  meter.add_load(c, MilliAmps{360.0}, seconds(10));
  EXPECT_DOUBLE_EQ(meter.component_current(c).value, 360.0);
  sim.run_until(TimePoint{} + seconds(20));
  EXPECT_DOUBLE_EQ(meter.component_current(c).value, 0.0);
  EXPECT_NEAR(meter.component_charge(c).value, 1000.0, 1e-9);
}

TEST(EnergyMeter, OverlappingLoadsStack) {
  sim::Simulator sim;
  EnergyMeter meter{sim};
  const auto c = meter.register_component("radio", MilliAmps{0.0});
  meter.add_load(c, MilliAmps{100.0}, seconds(10));
  sim.run_until(TimePoint{} + seconds(5));
  meter.add_load(c, MilliAmps{100.0}, seconds(10));
  EXPECT_DOUBLE_EQ(meter.component_current(c).value, 200.0);
  sim.run_until(TimePoint{} + seconds(30));
  EXPECT_DOUBLE_EQ(meter.component_current(c).value, 0.0);
  // Two loads of 100 mA · 10 s = 2 · (1000/3.6) µAh.
  EXPECT_NEAR(meter.component_charge(c).value, 2000.0 / 3.6, 1e-9);
}

TEST(EnergyMeter, AddLoadRejectsNonPositiveDuration) {
  sim::Simulator sim;
  EnergyMeter meter{sim};
  const auto c = meter.register_component("radio");
  EXPECT_THROW(meter.add_load(c, MilliAmps{10.0}, Duration::zero()),
               std::invalid_argument);
  EXPECT_THROW(meter.add_load(c, MilliAmps{10.0}, milliseconds(-5)),
               std::invalid_argument);
  EXPECT_EQ(meter.pending_capacity(c), 0u);
  EXPECT_DOUBLE_EQ(meter.component_current(c).value, 0.0);
}

TEST(EnergyMeter, LoadsScheduleNoEvents) {
  sim::Simulator sim;
  EnergyMeter meter{sim};
  const auto c = meter.register_component("radio");
  meter.add_load(c, MilliAmps{100.0}, seconds(10));
  meter.add_step(c, seconds(2), meter.reserve_seq(), MilliAmps{50.0});
  EXPECT_EQ(sim.pending_events(), 0u);
  EXPECT_GE(meter.pending_capacity(c), 2u);
  EXPECT_THROW(meter.add_step(c, Duration::zero(), meter.reserve_seq(),
                              MilliAmps{1.0}),
               std::invalid_argument);
}

TEST(EnergyMeter, DrainedComponentReleasesStepStorage) {
  sim::Simulator sim;
  EnergyMeter meter{sim};
  const auto c = meter.register_component("radio");
  for (int i = 1; i <= 8; ++i) {
    meter.add_load(c, MilliAmps{10.0}, seconds(i));
  }
  EXPECT_GE(meter.pending_capacity(c), 8u);
  sim.run_until(TimePoint{} + seconds(4));
  EXPECT_DOUBLE_EQ(meter.component_current(c).value, 40.0);
  EXPECT_GE(meter.pending_capacity(c), 4u);
  sim.run_until(TimePoint{} + seconds(8));
  EXPECT_DOUBLE_EQ(meter.component_current(c).value, 0.0);
  EXPECT_EQ(meter.pending_capacity(c), 0u);
}

TEST(EnergyMeter, AddCurrentShiftsTheDraw) {
  sim::Simulator sim;
  EnergyMeter meter{sim};
  const auto c = meter.register_component("radio", MilliAmps{10.0});
  meter.add_load(c, MilliAmps{100.0}, seconds(10));
  meter.add_current(c, MilliAmps{1.0});
  sim.run_until(TimePoint{} + seconds(20));
  meter.add_current(c, MilliAmps{-1.0});
  EXPECT_DOUBLE_EQ(meter.component_current(c).value, 10.0);
  // 111 mA for 10 s, then 11 mA for 10 s, over 3.6.
  EXPECT_NEAR(meter.component_charge(c).value, (1110.0 + 110.0) / 3.6,
              1e-9);
}

TEST(EnergyMeter, CheckpointDeltas) {
  sim::Simulator sim;
  EnergyMeter meter{sim};
  meter.register_component("radio", MilliAmps{36.0});
  sim.run_until(TimePoint{} + seconds(10));
  const auto cp = meter.checkpoint();
  sim.run_until(TimePoint{} + seconds(20));
  EXPECT_NEAR(meter.charge_since(cp).value, 100.0, 1e-9);
}

TEST(EnergyMeter, ComponentNameLookup) {
  sim::Simulator sim;
  EnergyMeter meter{sim};
  const auto c = meter.register_component("cellular:WCDMA");
  EXPECT_EQ(meter.component_name(c), "cellular:WCDMA");
}

TEST(EnergyMeter, InvalidHandleThrows) {
  sim::Simulator sim;
  EnergyMeter meter{sim};
  EXPECT_THROW(meter.component_charge(ComponentHandle{5}), std::out_of_range);
}

}  // namespace
}  // namespace d2dhb::energy

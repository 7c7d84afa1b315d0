// Tests for the runtime invariant auditor: the simulator kernel
// self-audit, the periodic sweep, registered substrate auditors, and
// the WifiDirectMedium invariant checks — including the negative paths
// that prove the auditor actually trips on corrupted state (a zeroed
// event-slot generation, an asymmetric link table, a discovery index
// out of step with the radios' listening flags). PointGrid's own audit
// is tested in test_spatial_grid.cpp.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/units.hpp"
#include "d2d/wifi_direct.hpp"
#include "energy/energy_meter.hpp"
#include "mobility/mobility.hpp"
#include "sim/simulator.hpp"
#include "world/node_table.hpp"

namespace d2dhb::d2d {

/// Test backdoor: WifiDirectRadio befriends this struct so audit tests
/// can corrupt the link table without widening the public API.
struct WifiDirectRadio::Internal {
  static void drop_first_link(WifiDirectRadio& radio) {
    radio.links_.erase(radio.links_.begin());
  }
  static void corrupt_first_group(WifiDirectRadio& radio) {
    radio.links_.front().group = GroupId{9999};
  }
  /// Flips the listening flag without telling the medium.
  static void force_listening(WifiDirectRadio& radio, bool listening) {
    radio.listening_ = listening;
  }
};

/// Test backdoor: WifiDirectMedium befriends this struct so audit tests
/// can plant entries in a strip's discovery index.
struct WifiDirectMedium::Internal {
  static void bin(WifiDirectMedium& medium, std::size_t strip, NodeId node,
                  const mobility::MobilityModel& mobility) {
    medium.strips_[strip].still.insert(node.value,
                                       mobility.position_at(TimePoint{}));
  }
};

}  // namespace d2dhb::d2d

namespace d2dhb::sim {
namespace {

TEST(SimulatorAudit, HealthyKernelPassesUnderChurn) {
  Simulator sim;
  sim.set_audit_interval(1);  // audit after every executed event
  int fired = 0;
  std::vector<EventId> cancelled;
  for (int i = 0; i < 64; ++i) {
    sim.schedule_after(seconds(i % 7), [&] { ++fired; });
    cancelled.push_back(sim.schedule_after(seconds(i % 5), [&] { ++fired; }));
  }
  for (EventId id : cancelled) EXPECT_TRUE(sim.cancel(id));
  EXPECT_NO_THROW(sim.run());
  EXPECT_EQ(fired, 64);
  EXPECT_NO_THROW(sim.audit());  // explicit audit on the drained kernel
}

TEST(SimulatorAudit, CorruptedSlotGenerationTripsAudit) {
  Simulator sim;
  const EventId id = sim.schedule_after(seconds(1), [] {});
  ASSERT_TRUE(id.valid());
  const auto slot = static_cast<std::uint32_t>(id.value & 0xffffffffu);
  sim.debug_corrupt_slot_generation(slot);
  EXPECT_THROW(sim.audit(), AuditError);
}

TEST(SimulatorAudit, PeriodicSweepCatchesCorruptionDuringRun) {
  Simulator sim;
  sim.set_audit_interval(1);
  const EventId victim = sim.schedule_after(seconds(10), [] {});
  const auto slot = static_cast<std::uint32_t>(victim.value & 0xffffffffu);
  sim.schedule_after(seconds(1), [&] {
    sim.debug_corrupt_slot_generation(slot);
  });
  // The corrupting event executes, then the post-event sweep trips.
  EXPECT_THROW(sim.run(), AuditError);
}

TEST(SimulatorAudit, RegisteredAuditorRunsEveryIntervalEvents) {
  Simulator sim;
  sim.set_audit_interval(4);
  int audits = 0;
  const std::uint64_t token = sim.add_auditor([&] { ++audits; });
  for (int i = 0; i < 12; ++i) {
    sim.schedule_after(seconds(i + 1), [] {});
  }
  sim.run();
  EXPECT_EQ(audits, 3);  // after events 4, 8, 12

  sim.remove_auditor(token);
  audits = 0;
  for (int i = 0; i < 8; ++i) {
    sim.schedule_after(seconds(i + 1), [] {});
  }
  sim.run();
  EXPECT_EQ(audits, 0);
}

TEST(SimulatorAudit, AuditorExceptionPropagatesOutOfStep) {
  Simulator sim;
  sim.set_audit_interval(1);
  sim.add_auditor([] { throw AuditError("substrate invariant broken"); });
  sim.schedule_after(seconds(1), [] {});
  EXPECT_THROW(sim.run(), AuditError);
}

TEST(SimulatorAudit, IntervalZeroDisablesPeriodicSweep) {
  Simulator sim;
  sim.set_audit_interval(0);
  int audits = 0;
  sim.add_auditor([&] { ++audits; });
  for (int i = 0; i < 16; ++i) {
    sim.schedule_after(seconds(i + 1), [] {});
  }
  sim.run();
  EXPECT_EQ(audits, 0);
  sim.audit();  // explicit call still runs registered auditors
  EXPECT_EQ(audits, 1);
}

TEST(SimulatorAudit, CorruptedShardKernelTripsWorldAudit) {
  Simulator sim{2};
  // Schedule onto kernel 1, then corrupt that kernel's slot table: the
  // world-level sweep must reach non-zero shards too.
  ShardGuard guard(sim, 1);
  const EventId id = sim.schedule_after(seconds(1), [] {});
  ASSERT_EQ((id.value >> 32) & 0xffu, 1u);
  sim.kernel(1).debug_corrupt_slot_generation(
      static_cast<std::uint32_t>(id.value & 0xffffffffu));
  EXPECT_THROW(sim.audit(), AuditError);
}

TEST(NodeTableAudit, RegisteredTableAuditorTripsOnDuplicateSlots) {
  Simulator sim;
  sim.set_audit_interval(1);
  world::NodeTable table;
  sim.add_auditor([&table] { table.audit(); });
  mobility::StaticMobility still{mobility::Vec2{0.0, 0.0}};
  table.add(NodeId{1}, &still);
  table.add(NodeId{2}, &still);
  sim.schedule_after(seconds(1), [] {});
  EXPECT_NO_THROW(sim.run());
  // Two nodes claiming one D2D radio slot is the cross-substrate
  // corruption the table auditor exists to catch.
  table.set_d2d_slot(NodeId{1}, 0);
  table.set_d2d_slot(NodeId{2}, 0);
  sim.schedule_after(seconds(1), [] {});
  EXPECT_THROW(sim.run(), std::logic_error);
}

class MediumAuditTest : public ::testing::Test {
 protected:
  struct Phone {
    Phone(sim::Simulator& sim, d2d::WifiDirectMedium& medium, std::uint64_t id,
          double x, double y)
        : meter(sim),
          mobility(mobility::Vec2{x, y}),
          radio(sim, NodeId{id}, medium, mobility, meter,
                d2d::shared_default_energy_profile()) {}

    energy::EnergyMeter meter;
    mobility::StaticMobility mobility;
    d2d::WifiDirectRadio radio;
  };

  MediumAuditTest()
      : medium_(sim_, nodes_, d2d::WifiDirectMedium::Params{}, 7) {}

  /// Connects a at->b and runs the sim until the link is up.
  void connect(Phone& a, Phone& b) {
    b.radio.set_listening(true);
    b.radio.set_group_owner_intent(d2d::kMaxGroupOwnerIntent);
    bool done = false;
    a.radio.connect(b.radio.owner(), [&](Result<GroupId> r) {
      ASSERT_TRUE(r.ok());
      done = true;
    });
    sim_.run_until(sim_.now() + seconds(30));
    ASSERT_TRUE(done);
  }

  sim::Simulator sim_;
  world::NodeTable nodes_;
  d2d::WifiDirectMedium medium_;
};

TEST_F(MediumAuditTest, SymmetricLinksPassTheMediumAuditor) {
  Phone ue(sim_, medium_, 1, 0.0, 0.0);
  Phone relay(sim_, medium_, 2, 1.0, 0.0);
  connect(ue, relay);
  ASSERT_TRUE(ue.radio.connected_to(NodeId{2}));
  EXPECT_NO_THROW(sim_.audit());
}

TEST_F(MediumAuditTest, ReattachAndDetachKeepTheMediumAuditorGreen) {
  // The discovery index holds a node exactly while the radio currently
  // attached for it listens.
  Phone first(sim_, medium_, 70000, 0.0, 0.0);
  Phone other(sim_, medium_, 2, 1.0, 0.0);
  first.radio.set_listening(true);
  other.radio.set_listening(true);
  EXPECT_EQ(medium_.indexed_count(), 2u);
  {
    // A second radio for the same node re-attaches in place. It does
    // not listen yet, so the node leaves the index.
    Phone again(sim_, medium_, 70000, 8.0, 0.0);
    EXPECT_EQ(medium_.radio(NodeId{70000}), &again.radio);
    EXPECT_FALSE(medium_.indexed(NodeId{70000}));
    EXPECT_EQ(medium_.indexed_count(), 1u);
    EXPECT_NO_THROW(sim_.audit());
    // The replacing radio's flag decides membership, binned at the
    // replacing radio's position.
    again.radio.set_listening(true);
    EXPECT_EQ(medium_.indexed_count(), 2u);
    EXPECT_EQ(medium_.position_of(NodeId{70000}).x, 8.0);
    EXPECT_NO_THROW(sim_.audit());
    // The replaced radio's flag no longer touches the index.
    first.radio.set_listening(false);
    EXPECT_TRUE(medium_.indexed(NodeId{70000}));
    EXPECT_EQ(medium_.position_of(NodeId{70000}).x, 8.0);
    EXPECT_NO_THROW(sim_.audit());
    first.radio.set_listening(true);
  }
  // Its destruction detaches and unbins the node (the first radio's
  // later destruction is then a no-op).
  EXPECT_EQ(medium_.radio(NodeId{70000}), nullptr);
  EXPECT_FALSE(medium_.indexed(NodeId{70000}));
  EXPECT_EQ(medium_.indexed_count(), 1u);
  EXPECT_NO_THROW(sim_.audit());
  // A detached radio's flag leaves the index alone as well.
  first.radio.set_listening(false);
  first.radio.set_listening(true);
  EXPECT_FALSE(medium_.indexed(NodeId{70000}));
  EXPECT_NO_THROW(sim_.audit());
}

/// Runs the auditor and returns its message ("" if it passed).
std::string audit_error(Simulator& sim) {
  try {
    sim.audit();
  } catch (const AuditError& e) {
    return e.what();
  }
  return "";
}

TEST_F(MediumAuditTest, NonListeningRadioInTheIndexTripsTheMediumAuditor) {
  Phone ue(sim_, medium_, 1, 0.0, 0.0);
  Phone relay(sim_, medium_, 2, 1.0, 0.0);
  relay.radio.set_listening(true);
  ASSERT_EQ(audit_error(sim_), "");
  d2d::WifiDirectMedium::Internal::bin(medium_, 0, NodeId{1}, ue.mobility);
  EXPECT_NE(audit_error(sim_).find(
                "node #1 does not listen but is binned in strip 0"),
            std::string::npos)
      << audit_error(sim_);
}

TEST_F(MediumAuditTest, UnattachedNodeInTheIndexTripsTheMediumAuditor) {
  Phone relay(sim_, medium_, 2, 1.0, 0.0);
  relay.radio.set_listening(true);
  mobility::StaticMobility ghost(mobility::Vec2{3.0, 0.0});
  d2d::WifiDirectMedium::Internal::bin(medium_, 0, NodeId{1}, ghost);
  EXPECT_NE(audit_error(sim_).find("strip 0's discovery index holds 2 "
                                   "nodes but only 1 attached listening"),
            std::string::npos)
      << audit_error(sim_);
}

TEST_F(MediumAuditTest, UnbinnedListeningRadioTripsTheMediumAuditor) {
  Phone ue(sim_, medium_, 1, 0.0, 0.0);
  Phone relay(sim_, medium_, 2, 1.0, 0.0);
  ASSERT_EQ(audit_error(sim_), "");
  // The flag flips behind the medium's back: the relay now answers
  // scans on the legacy path but is absent from its strip's index.
  d2d::WifiDirectRadio::Internal::force_listening(relay.radio, true);
  EXPECT_NE(audit_error(sim_).find(
                "node #2 listens but is missing from strip 0"),
            std::string::npos)
      << audit_error(sim_);
}

TEST_F(MediumAuditTest, DroppedBackLinkTripsTheMediumAuditor) {
  Phone ue(sim_, medium_, 1, 0.0, 0.0);
  Phone relay(sim_, medium_, 2, 1.0, 0.0);
  connect(ue, relay);
  d2d::WifiDirectRadio::Internal::drop_first_link(relay.radio);
  EXPECT_THROW(sim_.audit(), sim::AuditError);
}

TEST_F(MediumAuditTest, MismatchedGroupIdTripsTheMediumAuditor) {
  Phone ue(sim_, medium_, 1, 0.0, 0.0);
  Phone relay(sim_, medium_, 2, 1.0, 0.0);
  connect(ue, relay);
  d2d::WifiDirectRadio::Internal::corrupt_first_group(ue.radio);
  EXPECT_THROW(sim_.audit(), sim::AuditError);
}

}  // namespace
}  // namespace d2dhb::sim

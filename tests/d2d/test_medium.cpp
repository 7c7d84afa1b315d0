#include "d2d/medium.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "d2d/wifi_direct.hpp"
#include "energy/energy_meter.hpp"
#include "sim/simulator.hpp"

namespace d2dhb::d2d {
namespace {

// Minimal device bundle for medium/radio tests.
struct TestPhone {
  TestPhone(sim::Simulator& sim, WifiDirectMedium& medium, std::uint64_t id,
            mobility::Vec2 pos)
      : meter(sim),
        mobility(pos),
        radio(sim, NodeId{id}, medium, mobility, meter,
              shared_default_energy_profile()) {}

  energy::EnergyMeter meter;
  mobility::StaticMobility mobility;
  WifiDirectRadio radio;
};

class MediumTest : public ::testing::Test {
 protected:
  MediumTest() : medium_(sim_, nodes_, WifiDirectMedium::Params{}, 99) {}

  sim::Simulator sim_;
  world::NodeTable nodes_;
  WifiDirectMedium medium_;
};

TEST_F(MediumTest, DistanceBetweenRegisteredRadios) {
  TestPhone a{sim_, medium_, 1, {0.0, 0.0}};
  TestPhone b{sim_, medium_, 2, {3.0, 4.0}};
  EXPECT_DOUBLE_EQ(medium_.distance(NodeId{1}, NodeId{2}).value, 5.0);
  EXPECT_TRUE(medium_.in_range(NodeId{1}, NodeId{2}));
}

TEST_F(MediumTest, OutOfRangeBeyond30m) {
  TestPhone a{sim_, medium_, 1, {0.0, 0.0}};
  TestPhone b{sim_, medium_, 2, {31.0, 0.0}};
  EXPECT_FALSE(medium_.in_range(NodeId{1}, NodeId{2}));
}

TEST_F(MediumTest, UnknownNodeThrows) {
  TestPhone a{sim_, medium_, 1, {0.0, 0.0}};
  EXPECT_THROW(medium_.distance(NodeId{1}, NodeId{9}), std::out_of_range);
  EXPECT_THROW(medium_.position_of(NodeId{9}), std::out_of_range);
}

TEST_F(MediumTest, ScanFindsOnlyListeningPeersInRange) {
  TestPhone scanner{sim_, medium_, 1, {0.0, 0.0}};
  TestPhone listening_near{sim_, medium_, 2, {5.0, 0.0}};
  TestPhone silent_near{sim_, medium_, 3, {5.0, 5.0}};
  TestPhone listening_far{sim_, medium_, 4, {100.0, 0.0}};
  listening_near.radio.set_listening(true);
  listening_far.radio.set_listening(true);

  const auto peers = medium_.scan_from(NodeId{1});
  ASSERT_EQ(peers.size(), 1u);
  EXPECT_EQ(peers[0].node, NodeId{2});
}

TEST_F(MediumTest, ScanCarriesAdvertAndNoisyDistance) {
  TestPhone scanner{sim_, medium_, 1, {0.0, 0.0}};
  TestPhone relay{sim_, medium_, 2, {10.0, 0.0}};
  relay.radio.set_listening(true);
  relay.radio.set_advert(RelayAdvert{true, 5});

  const auto peers = medium_.scan_from(NodeId{1});
  ASSERT_EQ(peers.size(), 1u);
  EXPECT_TRUE(peers[0].advert.offers_relay);
  EXPECT_EQ(peers[0].advert.capacity_remaining, 5u);
  // RSSI noise is sub-meter by default.
  EXPECT_NEAR(peers[0].estimated_distance.value, 10.0, 2.0);
}

TEST_F(MediumTest, DetachedRadioDisappears) {
  auto phone = std::make_unique<TestPhone>(sim_, medium_, 2,
                                           mobility::Vec2{1.0, 0.0});
  phone->radio.set_listening(true);
  TestPhone scanner{sim_, medium_, 1, {0.0, 0.0}};
  EXPECT_EQ(medium_.scan_from(NodeId{1}).size(), 1u);
  phone.reset();  // destructor detaches
  EXPECT_EQ(medium_.scan_from(NodeId{1}).size(), 0u);
  EXPECT_EQ(medium_.radio(NodeId{2}), nullptr);
}

TEST_F(MediumTest, DiscoveryMissProbabilityDropsPeers) {
  world::NodeTable flaky_nodes;
  WifiDirectMedium flaky{sim_, flaky_nodes,
                         WifiDirectMedium::Params{Meters{30.0}, 0.0, 1.0},
                         5};
  TestPhone scanner{sim_, flaky, 1, {0.0, 0.0}};
  TestPhone relay{sim_, flaky, 2, {1.0, 0.0}};
  relay.radio.set_listening(true);
  EXPECT_TRUE(flaky.scan_from(NodeId{1}).empty());
}

TEST_F(MediumTest, ScanResultsAreInAscendingNodeIdOrder) {
  TestPhone scanner{sim_, medium_, 3, {0.0, 0.0}};
  TestPhone far_id{sim_, medium_, 9, {2.0, 0.0}};
  TestPhone low_id{sim_, medium_, 1, {4.0, 0.0}};
  TestPhone mid_id{sim_, medium_, 5, {6.0, 0.0}};
  far_id.radio.set_listening(true);
  low_id.radio.set_listening(true);
  mid_id.radio.set_listening(true);

  const auto peers = medium_.scan_from(NodeId{3});
  ASSERT_EQ(peers.size(), 3u);
  EXPECT_EQ(peers[0].node, NodeId{1});
  EXPECT_EQ(peers[1].node, NodeId{5});
  EXPECT_EQ(peers[2].node, NodeId{9});
}

TEST_F(MediumTest, LegacyScanAndGridScanAreIdenticalUnderOneSeed) {
  // Same layout + same RNG seed, answered by both paths: the peer sets,
  // order, and noisy distance draws must match exactly.
  auto run = [this](bool legacy, double cell_m) {
    WifiDirectMedium::Params params;
    params.rssi_noise_stddev_m = 0.5;
    params.discovery_miss_probability = 0.3;
    params.legacy_scan = legacy;
    params.grid_cell_m = cell_m;
    world::NodeTable nodes;
    WifiDirectMedium medium{sim_, nodes, params, 77};
    std::vector<std::unique_ptr<TestPhone>> phones;
    phones.push_back(std::make_unique<TestPhone>(
        sim_, medium, 1, mobility::Vec2{0.0, 0.0}));
    for (std::uint64_t id = 2; id <= 12; ++id) {
      phones.push_back(std::make_unique<TestPhone>(
          sim_, medium, id,
          mobility::Vec2{2.0 * static_cast<double>(id), 1.0}));
      phones.back()->radio.set_listening(true);
    }
    std::vector<std::pair<std::uint64_t, double>> seen;
    for (int scan = 0; scan < 5; ++scan) {
      for (const auto& p : medium.scan_from(NodeId{1})) {
        seen.emplace_back(p.node.value, p.estimated_distance.value);
      }
    }
    return seen;
  };
  const auto grid = run(false, 0.0);
  const auto legacy = run(true, 0.0);
  const auto coarse = run(false, 100.0);  // one bucket holds everyone
  const auto fine = run(false, 1.5);      // everyone in a distinct cell
  EXPECT_EQ(grid, legacy);
  EXPECT_EQ(grid, coarse);
  EXPECT_EQ(grid, fine);
}

/// A listening relay on a straight walk through a static scanner's
/// range, between two static listening relays (lower and higher ids):
/// every scan finds the walker exactly while it is within range at that
/// instant, keeps NodeId order, and matches the full-table scan bit for
/// bit.
TEST(MediumWalkingRelay, FoundExactlyWhileInRangeOnBothPaths) {
  sim::Simulator sim;
  struct Arm {
    Arm(sim::Simulator& sim, bool legacy)
        : medium(sim, nodes, params(legacy), 31),
          scanner(sim, medium, 1, {0.0, 0.0}),
          low(sim, medium, 2, {0.0, 10.0}),
          high(sim, medium, 9, {0.0, -10.0}),
          meter(sim),
          walk({-60.0, 0.0}, {1.0, 0.0}),
          walker(sim, NodeId{5}, medium, walk, meter,
                 shared_default_energy_profile()) {
      low.radio.set_listening(true);
      high.radio.set_listening(true);
      walker.set_listening(true);
    }
    static WifiDirectMedium::Params params(bool legacy) {
      WifiDirectMedium::Params p;
      p.legacy_scan = legacy;
      return p;
    }
    world::NodeTable nodes;
    WifiDirectMedium medium;
    TestPhone scanner, low, high;
    energy::EnergyMeter meter;
    mobility::LinearMobility walk;
    WifiDirectRadio walker;
  };
  Arm grid{sim, false};
  Arm legacy{sim, true};
  EXPECT_TRUE(grid.medium.indexed(NodeId{5}));
  std::size_t found = 0;
  for (int t = 0; t <= 150; t += 5) {
    sim.run_until(TimePoint{} + seconds(t));
    SCOPED_TRACE("t=" + std::to_string(t));
    const auto got = grid.medium.scan_from(NodeId{1});
    const auto want = legacy.medium.scan_from(NodeId{1});
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].node, want[i].node);
      EXPECT_EQ(std::memcmp(&got[i].estimated_distance.value,
                            &want[i].estimated_distance.value,
                            sizeof(double)),
                0);
    }
    // The walker is at x = t - 60: within 30 m for t in [30, 90].
    const bool in_range = t >= 30 && t <= 90;
    std::vector<std::uint64_t> ids;
    for (const auto& peer : got) ids.push_back(peer.node.value);
    const std::vector<std::uint64_t> expected =
        in_range ? std::vector<std::uint64_t>{2, 5, 9}
                 : std::vector<std::uint64_t>{2, 9};
    EXPECT_EQ(ids, expected);
    if (in_range) ++found;
    EXPECT_NO_THROW(sim.audit());
  }
  EXPECT_EQ(found, 13u);
}

/// One radio of the scripted property test: a static or walking phone
/// homed to a given strip.
struct ScriptPhone {
  ScriptPhone(sim::Simulator& sim, WifiDirectMedium& medium,
              world::NodeTable& nodes, std::uint64_t id, std::uint32_t strip,
              std::unique_ptr<mobility::MobilityModel> model)
      : meter(sim), mobility(std::move(model)) {
    // Home the node before its radio attaches (and is indexed).
    nodes.add(NodeId{id}, mobility.get());
    nodes.set_shard(NodeId{id}, strip);
    radio = std::make_unique<WifiDirectRadio>(
        sim, NodeId{id}, medium, *mobility, meter,
        shared_default_energy_profile());
  }

  energy::EnergyMeter meter;
  std::unique_ptr<mobility::MobilityModel> mobility;
  std::unique_ptr<WifiDirectRadio> radio;
};

/// One medium of the property test with the phones attached to it.
struct ScriptArm {
  ScriptArm(sim::Simulator& sim, bool legacy)
      : medium(sim, nodes, params(legacy), 2024) {}

  static WifiDirectMedium::Params params(bool legacy) {
    WifiDirectMedium::Params p;
    p.rssi_noise_stddev_m = 0.5;
    p.discovery_miss_probability = 0.2;
    p.legacy_scan = legacy;
    return p;
  }

  world::NodeTable nodes;
  WifiDirectMedium medium;
  /// The radio currently attached for each node.
  std::map<std::uint64_t, std::unique_ptr<ScriptPhone>> current;
  /// Radios a re-attach replaced; still alive, no longer in charge.
  std::vector<std::unique_ptr<ScriptPhone>> replaced;
};

// Property: the listening-only discovery index answers every scan
// exactly like the full-table reference (legacy_scan), through a seeded
// script of listening toggles, attaches, detaches, re-attaches and time
// advances over static and walking radios with sparse ids on 3 strips.
TEST(MediumIndexProperty, ListeningIndexMatchesTheFullTableReference) {
  constexpr std::uint32_t kStrips = 3;
  sim::Simulator sim{kStrips};
  ScriptArm grid{sim, false};
  ScriptArm legacy{sim, true};
  ScriptArm* const arms[] = {&grid, &legacy};

  std::vector<std::uint64_t> ids;
  for (std::uint64_t k = 0; k < 30; ++k) ids.push_back(3 + k * k * 7);
  Rng script{0x5eed};
  std::map<std::uint64_t, std::uint32_t> home;
  for (const std::uint64_t id : ids) {
    home[id] = static_cast<std::uint32_t>(script.uniform_int(0, kStrips - 1));
  }
  auto attach = [&](std::uint64_t id) {
    const mobility::Vec2 at{script.uniform(0.0, 70.0),
                            script.uniform(0.0, 70.0)};
    const bool walks = script.chance(0.5);
    const mobility::Vec2 velocity{script.uniform(-1.5, 1.5),
                                  script.uniform(-1.5, 1.5)};
    const bool listens = script.chance(0.5);
    const RelayAdvert advert{
        script.chance(0.8),
        static_cast<std::uint32_t>(script.uniform_int(0, 7))};
    for (ScriptArm* arm : arms) {
      std::unique_ptr<mobility::MobilityModel> model;
      if (walks) {
        model = std::make_unique<mobility::LinearMobility>(at, velocity);
      } else {
        model = std::make_unique<mobility::StaticMobility>(at);
      }
      auto phone = std::make_unique<ScriptPhone>(
          sim, arm->medium, arm->nodes, id, home[id], std::move(model));
      phone->radio->set_advert(advert);
      phone->radio->set_listening(listens);
      auto& slot = arm->current[id];
      if (slot) arm->replaced.push_back(std::move(slot));
      slot = std::move(phone);
    }
  };
  for (const std::uint64_t id : ids) {
    if (script.chance(0.7)) attach(id);
  }

  std::size_t peers_seen = 0;
  std::size_t reattaches = 0;
  std::size_t stale_toggles = 0;  // by a replaced radio of an attached node
  for (int step = 0; step < 400; ++step) {
    const std::uint64_t id = ids[script.uniform_int(0, ids.size() - 1)];
    const bool attached = grid.current.count(id) != 0;
    const double op = script.next_double();
    if (op < 0.35 && attached) {
      const bool listens = script.chance(0.5);
      for (ScriptArm* arm : arms) {
        arm->current[id]->radio->set_listening(listens);
      }
    } else if (op < 0.5) {
      if (attached) ++reattaches;
      attach(id);  // a fresh attach, or a re-attach replacing the radio
    } else if (op < 0.55 && attached) {
      for (ScriptArm* arm : arms) arm->current.erase(id);  // detaches
    } else if (op < 0.75 && !grid.replaced.empty()) {
      // A replaced radio toggles, or dies; neither touches the index.
      const std::size_t k = script.uniform_int(0, grid.replaced.size() - 1);
      const bool dies = script.chance(0.2);
      const NodeId owner = grid.replaced[k]->radio->owner();
      if (!dies && grid.current.count(owner.value) != 0) ++stale_toggles;
      for (ScriptArm* arm : arms) {
        auto& phone = arm->replaced[k];
        if (dies) {
          arm->replaced.erase(arm->replaced.begin() +
                              static_cast<std::ptrdiff_t>(k));
        } else {
          phone->radio->set_listening(!phone->radio->listening());
        }
      }
    } else {
      const auto dt = static_cast<double>(script.uniform_int(1, 20));
      sim.run_until(sim.now() + seconds(dt));
    }

    for (const auto& [scanner, phone] : grid.current) {
      const auto want = legacy.medium.scan_from(NodeId{scanner});
      const auto got = grid.medium.scan_from(NodeId{scanner});
      ASSERT_EQ(got.size(), want.size())
          << "step " << step << ", scanner #" << scanner;
      for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].node, want[i].node) << "step " << step;
        EXPECT_EQ(std::memcmp(&got[i].estimated_distance.value,
                              &want[i].estimated_distance.value,
                              sizeof(double)),
                  0)
            << "step " << step << ", peer #" << got[i].node.value;
        EXPECT_EQ(got[i].advert.offers_relay, want[i].advert.offers_relay);
        EXPECT_EQ(got[i].advert.capacity_remaining,
                  want[i].advert.capacity_remaining);
      }
      peers_seen += got.size();
    }
    ASSERT_NO_THROW(sim.audit()) << "step " << step;
  }
  // The script really exercised the index.
  EXPECT_GT(peers_seen, 1000u);
  EXPECT_GT(reattaches, 10u);
  EXPECT_GT(stale_toggles, 10u);
  EXPECT_GT(sim.now(), TimePoint{} + seconds(300));
  for (std::uint32_t strip = 0; strip < kStrips; ++strip) {
    EXPECT_GT(grid.medium.indexed_count(strip), 0u) << "strip " << strip;
  }
}

TEST_F(MediumTest, InRangeIsFalseForDetachedAndFarPeers) {
  TestPhone owner{sim_, medium_, 1, {0.0, 0.0}};
  TestPhone near{sim_, medium_, 2, {5.0, 0.0}};
  TestPhone far{sim_, medium_, 3, {100.0, 0.0}};
  auto doomed = std::make_unique<TestPhone>(sim_, medium_, 4,
                                            mobility::Vec2{6.0, 0.0});
  EXPECT_TRUE(medium_.in_range(NodeId{1}, NodeId{2}));
  EXPECT_FALSE(medium_.in_range(NodeId{1}, NodeId{3}));
  EXPECT_TRUE(medium_.in_range(NodeId{1}, NodeId{4}));
  doomed.reset();  // detaches
  // A node that left the medium is out of range, not an error, both as
  // the peer and as the asker.
  EXPECT_FALSE(medium_.in_range(NodeId{1}, NodeId{4}));
  EXPECT_FALSE(medium_.in_range(NodeId{4}, NodeId{1}));
  EXPECT_FALSE(medium_.in_range(NodeId{1}, NodeId{41}));
}

TEST_F(MediumTest, UnknownNodeErrorsNameTheNode) {
  try {
    medium_.position_of(NodeId{41});
    FAIL() << "expected std::out_of_range";
  } catch (const std::out_of_range& e) {
    EXPECT_NE(std::string(e.what()).find("41"), std::string::npos);
  }
  // A scan from a detached/unknown node is a no-op, not an error — a
  // pending scan timer may outlive its radio.
  EXPECT_TRUE(medium_.scan_from(NodeId{41}).empty());
}

}  // namespace
}  // namespace d2dhb::d2d

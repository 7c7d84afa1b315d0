// Randomized operation sequences against the substrates, checking the
// invariants that must survive ANY interleaving: energy monotonicity,
// link symmetry, legal RRC walks, and accounting conservation.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "d2d/wifi_direct.hpp"
#include "energy/energy_meter.hpp"
#include "radio/cellular_modem.hpp"
#include "scenario/scenario.hpp"
#include "sim/simulator.hpp"

namespace d2dhb {
namespace {

// ---------------------------------------------------------------- RRC --

class RrcFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(RrcFuzzTest, RandomTrafficKeepsInvariants) {
  Rng rng{static_cast<std::uint64_t>(GetParam())};
  sim::Simulator sim;
  energy::EnergyMeter meter{sim};
  radio::SignalingCounter signaling;
  radio::CellularModem modem{sim, NodeId{1},
                             rng.chance(0.5)
                                 ? radio::shared_wcdma_profile()
                                 : std::make_shared<const radio::RrcProfile>(
                                       radio::lte_profile()),
                             meter, signaling};
  std::uint64_t submitted = 0, completed = 0;
  modem.set_uplink_handler(
      [&](const net::UplinkBundle&) { ++completed; });

  double last_charge = 0.0;
  std::uint64_t last_l3 = 0;
  for (int op = 0; op < 200; ++op) {
    const double roll = rng.next_double();
    if (roll < 0.55) {
      net::UplinkBundle bundle;
      bundle.sender = NodeId{1};
      net::HeartbeatMessage m;
      m.id = MessageId{static_cast<std::uint64_t>(op + 1)};
      m.origin = NodeId{1};
      m.size = Bytes{static_cast<std::uint32_t>(rng.uniform_int(20, 600))};
      bundle.messages = {m};
      modem.transmit(std::move(bundle));
      ++submitted;
    } else if (roll < 0.65) {
      const std::uint64_t before = modem.bundles_sent();
      modem.force_idle();
      // Whatever was in flight is gone for good.
      submitted = before;
      EXPECT_EQ(modem.state(), radio::RrcState::idle);
    } else {
      sim.run_until(sim.now() + seconds(rng.uniform(0.1, 12.0)));
    }
    // Invariants: charge and signaling only ever grow.
    const double charge = modem.radio_charge().value;
    EXPECT_GE(charge, last_charge - 1e-9);
    last_charge = charge;
    EXPECT_GE(signaling.total(), last_l3);
    last_l3 = signaling.total();
  }
  // Quiescence: with no new traffic, the modem must reach IDLE.
  sim.run_until(sim.now() + seconds(60));
  EXPECT_EQ(modem.state(), radio::RrcState::idle);
  EXPECT_EQ(completed, submitted);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RrcFuzzTest, ::testing::Range(1, 13));

// -------------------------------------------------------- Wi-Fi Direct --

struct FuzzPhone {
  FuzzPhone(sim::Simulator& sim, d2d::WifiDirectMedium& medium,
            std::uint64_t id, mobility::Vec2 pos)
      : meter(sim),
        mobility(pos),
        radio(sim, NodeId{id}, medium, mobility, meter,
              d2d::shared_default_energy_profile()) {
    radio.set_listening(true);
  }
  energy::EnergyMeter meter;
  mobility::StaticMobility mobility;
  d2d::WifiDirectRadio radio;
};

class WifiFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(WifiFuzzTest, RandomLinkOpsKeepSymmetry) {
  Rng rng{static_cast<std::uint64_t>(GetParam()) * 977};
  sim::Simulator sim;
  world::NodeTable nodes;
  d2d::WifiDirectMedium medium{sim, nodes, d2d::WifiDirectMedium::Params{},
                               42};
  constexpr std::size_t kPhones = 6;
  std::vector<std::unique_ptr<FuzzPhone>> phones;
  for (std::size_t i = 0; i < kPhones; ++i) {
    phones.push_back(std::make_unique<FuzzPhone>(
        sim, medium, i + 1,
        mobility::Vec2{rng.uniform(0, 15), rng.uniform(0, 15)}));
  }
  auto pick = [&] { return rng.uniform_int(0, kPhones - 1); };

  for (int op = 0; op < 300; ++op) {
    const std::size_t a = pick();
    std::size_t b = pick();
    while (b == a) b = pick();
    const NodeId nb{b + 1};
    const double roll = rng.next_double();
    if (roll < 0.4) {
      phones[a]->radio.connect(nb, [](Result<GroupId>) {});
    } else if (roll < 0.55) {
      phones[a]->radio.disconnect(nb);
    } else if (roll < 0.85) {
      net::HeartbeatMessage m;
      m.id = MessageId{static_cast<std::uint64_t>(op + 1000)};
      m.origin = NodeId{a + 1};
      m.size = net::kStandardHeartbeatSize;
      m.expiry = seconds(300);
      m.created_at = sim.now();
      phones[a]->radio.send(nb, net::D2dPayload{m});
    } else {
      sim.run_until(sim.now() + seconds(rng.uniform(0.1, 5.0)));
    }
    // Invariant: links are symmetric at every step.
    for (std::size_t i = 0; i < kPhones; ++i) {
      for (std::size_t j = 0; j < kPhones; ++j) {
        if (i == j) continue;
        EXPECT_EQ(phones[i]->radio.connected_to(NodeId{j + 1}),
                  phones[j]->radio.connected_to(NodeId{i + 1}))
            << "asymmetric link " << i + 1 << "<->" << j + 1 << " at op "
            << op;
      }
    }
  }
  // Drain outstanding events; energy must be finite and non-negative.
  sim.run_until(sim.now() + seconds(30));
  for (auto& phone : phones) {
    EXPECT_GE(phone->radio.radio_charge().value, 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WifiFuzzTest, ::testing::Range(1, 9));

// -------------------------------------------------- group client limit --

TEST(WifiGroupLimit, OwnerRefusesBeyondMaxClients) {
  sim::Simulator sim;
  d2d::WifiDirectMedium::Params params;
  params.max_group_clients = 2;
  world::NodeTable nodes;
  d2d::WifiDirectMedium medium{sim, nodes, params, 1};
  FuzzPhone owner{sim, medium, 1, {0, 0}};
  owner.radio.set_group_owner_intent(d2d::kMaxGroupOwnerIntent);
  std::vector<std::unique_ptr<FuzzPhone>> clients;
  int accepted = 0, refused = 0;
  for (std::uint64_t i = 2; i <= 5; ++i) {
    clients.push_back(std::make_unique<FuzzPhone>(
        sim, medium, i, mobility::Vec2{1.0, static_cast<double>(i)}));
    clients.back()->radio.connect(NodeId{1}, [&](Result<GroupId> r) {
      if (r.ok()) {
        ++accepted;
      } else {
        EXPECT_EQ(r.error().code, Errc::capacity_exceeded);
        ++refused;
      }
    });
    sim.run_until(sim.now() + seconds(4));
  }
  EXPECT_EQ(accepted, 2);
  EXPECT_EQ(refused, 2);
  EXPECT_EQ(owner.radio.link_count(), 2u);
}

// ------------------------------------------------- end-to-end accounting --

class AccountingFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(AccountingFuzzTest, ServerTotalsAreConsistent) {
  scenario::Scenario world{scenario::Scenario::Params{
      static_cast<std::uint64_t>(GetParam()) * 131, {}, {}}};
  Rng rng = world.fork_rng();
  apps::AppProfile app = apps::standard_app();
  app.heartbeat_period = seconds(rng.uniform(15.0, 45.0));
  app.expiry = app.heartbeat_period;

  core::PhoneConfig rc;
  rc.mobility =
      std::make_unique<mobility::StaticMobility>(mobility::Vec2{0, 0});
  core::Phone& relay_phone = world.add_phone(std::move(rc));
  core::RelayAgent::Params rp;
  rp.own_app = app;
  rp.scheduler.max_own_delay = app.heartbeat_period;
  rp.scheduler.deadline_margin = seconds(2);
  rp.scheduler.capacity = 1 + rng.uniform_int(0, 6);
  core::RelayAgent& relay = world.add_relay(relay_phone, rp);

  const std::size_t ues = 1 + rng.uniform_int(0, 4);
  for (std::size_t i = 0; i < ues; ++i) {
    core::PhoneConfig pc;
    pc.mobility = std::make_unique<mobility::StaticMobility>(
        mobility::Vec2{rng.uniform(0.5, 8.0), rng.uniform(0.5, 8.0)});
    core::Phone& phone = world.add_phone(std::move(pc));
    core::UeAgent::Params up;
    up.app = app;
    up.feedback_timeout = 2 * app.heartbeat_period;
    world.add_ue(phone, up).start(seconds(rng.uniform(1.0, 20.0)));
    world.register_session(phone, 3 * app.heartbeat_period);
  }
  world.register_session(relay_phone, 3 * app.heartbeat_period);
  relay.start();

  world.sim().run_until(TimePoint{} + seconds(900));

  std::uint64_t emitted = relay.stats().own_heartbeats;
  for (auto& ue : world.ues()) emitted += ue->stats().heartbeats;
  const auto totals = world.server().totals();
  // Conservation: nothing invented, on_time + late == delivered,
  // delivered never exceeds emitted.
  EXPECT_EQ(totals.on_time + totals.late, totals.delivered);
  EXPECT_LE(totals.delivered, emitted);
  // With static in-range phones and a reliable backhaul, at most the
  // in-flight tail is undelivered.
  EXPECT_GE(totals.delivered + 2 * (ues + 1), emitted);
}

INSTANTIATE_TEST_SUITE_P(Seeds, AccountingFuzzTest, ::testing::Range(1, 11));

}  // namespace
}  // namespace d2dhb

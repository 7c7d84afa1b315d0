#include "scenario/probes.hpp"

#include <memory>

#include "apps/heartbeat_app.hpp"
#include "energy/current_trace.hpp"
#include "scenario/scenario.hpp"

namespace d2dhb::scenario {

namespace {

/// Two phones 1 m apart on a bench, as in the paper's lab setup. Returns
/// the scenario with phone[0] = UE, phone[1] = relay.
std::unique_ptr<Scenario> bench_pair(std::uint64_t seed,
                                     MilliAmps baseline = MilliAmps{40.0}) {
  auto world = std::make_unique<Scenario>(Scenario::Params{seed, {}, {}});
  for (int i = 0; i < 2; ++i) {
    core::PhoneConfig pc;
    pc.baseline_current = baseline;
    pc.mobility = std::make_unique<mobility::StaticMobility>(
        mobility::Vec2{static_cast<double>(i), 0.0});
    world->add_phone(std::move(pc));
  }
  return world;
}

/// The `seq`-th standard heartbeat of `origin`'s primary app.
net::HeartbeatMessage standard_heartbeat(Scenario& world, NodeId origin,
                                         std::uint64_t seq = 1) {
  return net::make_heartbeat(origin, apps::app_id_for(origin, 0), seq,
                             net::kStandardHeartbeatSize, seconds(270),
                             world.sim().now());
}

}  // namespace

PhaseProbeResult measure_phases(std::uint64_t seed) {
  auto world = bench_pair(seed);
  core::Phone& ue = *world->phones()[0];
  core::Phone& relay = *world->phones()[1];
  relay.wifi().set_listening(true);
  relay.wifi().set_advert(d2d::RelayAdvert{true, 7});
  relay.wifi().set_group_owner_intent(d2d::kMaxGroupOwnerIntent);

  PhaseProbeResult result;
  sim::Simulator& sim = world->sim();

  // --- Discovery ---
  double ue_before = ue.wifi_charge().value;
  double relay_before = relay.wifi_charge().value;
  bool discovered = false;
  ue.wifi().start_discovery(
      [&](const std::vector<d2d::DiscoveredPeer>&) { discovered = true; });
  sim.run_until(sim.now() + seconds(10));
  result.ue.discovery_uah = ue.wifi_charge().value - ue_before;
  result.relay.discovery_uah = relay.wifi_charge().value - relay_before;

  // --- Connection ---
  ue_before = ue.wifi_charge().value;
  relay_before = relay.wifi_charge().value;
  bool connected = false;
  ue.wifi().connect(relay.id(),
                    [&](Result<GroupId> r) { connected = r.ok(); });
  sim.run_until(sim.now() + seconds(4));
  result.ue.connection_uah = ue.wifi_charge().value - ue_before;
  result.relay.connection_uah = relay.wifi_charge().value - relay_before;

  // --- Forwarding (one heartbeat) ---
  ue_before = ue.wifi_charge().value;
  relay_before = relay.wifi_charge().value;
  ue.wifi().send(relay.id(),
                 net::D2dPayload{standard_heartbeat(*world, ue.id())});
  sim.run_until(sim.now() + seconds(4));
  result.ue.forwarding_uah = ue.wifi_charge().value - ue_before;
  result.relay.forwarding_uah = relay.wifi_charge().value - relay_before;

  (void)discovered;
  (void)connected;
  return result;
}

std::vector<double> measure_receive_energy(std::size_t max_messages,
                                           std::uint64_t seed) {
  auto world = bench_pair(seed);
  core::Phone& ue = *world->phones()[0];
  core::Phone& relay = *world->phones()[1];
  relay.wifi().set_listening(true);
  sim::Simulator& sim = world->sim();

  ue.wifi().connect(relay.id(), [](Result<GroupId>) {});
  sim.run_until(sim.now() + seconds(4));

  const double relay_baseline = relay.wifi_charge().value;
  std::vector<double> cumulative;
  cumulative.reserve(max_messages);
  for (std::size_t k = 0; k < max_messages; ++k) {
    ue.wifi().send(
        relay.id(),
        net::D2dPayload{standard_heartbeat(*world, ue.id(), k + 1)});
    sim.run_until(sim.now() + seconds(5));
    cumulative.push_back(relay.wifi_charge().value - relay_baseline);
  }
  return cumulative;
}

TraceResult trace_d2d_transfer(std::uint64_t seed) {
  // Baseline 200 mA mirrors the paper's screen-on capture floor.
  auto world = bench_pair(seed, MilliAmps{200.0});
  core::Phone& ue = *world->phones()[0];
  core::Phone& relay = *world->phones()[1];
  relay.wifi().set_listening(true);
  sim::Simulator& sim = world->sim();

  ue.wifi().connect(relay.id(), [](Result<GroupId>) {});
  sim.run_until(sim.now() + seconds(4));

  energy::CurrentTraceRecorder recorder{sim, ue.meter()};
  const double before = ue.wifi_charge().value;
  recorder.start();
  ue.wifi().send(relay.id(),
                 net::D2dPayload{standard_heartbeat(*world, ue.id())});
  sim.run_until(sim.now() + seconds(2.5));
  recorder.stop();

  TraceResult result;
  result.series = recorder.as_series("D2D transfer");
  for (const auto& s : recorder.samples()) {
    result.peak_ma = std::max(result.peak_ma, s.current.value);
  }
  result.window_s = 2.5;
  result.charge_uah = ue.wifi_charge().value - before;
  return result;
}

TraceResult trace_cellular_transfer(std::uint64_t seed, bool use_lte) {
  auto world = std::make_unique<Scenario>(Scenario::Params{seed, {}, {}});
  core::PhoneConfig pc;
  pc.baseline_current = MilliAmps{200.0};
  if (use_lte) {
    pc.rrc = std::make_shared<const radio::RrcProfile>(radio::lte_profile());
  }
  pc.mobility = std::make_unique<mobility::StaticMobility>(
      mobility::Vec2{0.0, 0.0});
  core::Phone& phone = world->add_phone(std::move(pc));
  sim::Simulator& sim = world->sim();

  energy::CurrentTraceRecorder recorder{sim, phone.meter()};
  const double before = phone.cellular_charge().value;
  recorder.start();
  net::UplinkBundle bundle;
  bundle.sender = phone.id();
  bundle.messages = {standard_heartbeat(*world, phone.id())};
  phone.modem().transmit(std::move(bundle));
  sim.run_until(sim.now() + seconds(9));
  recorder.stop();

  TraceResult result;
  result.series = recorder.as_series(use_lte ? "LTE transfer"
                                             : "Cellular transfer");
  for (const auto& s : recorder.samples()) {
    result.peak_ma = std::max(result.peak_ma, s.current.value);
  }
  result.window_s = 9.0;
  result.charge_uah = phone.cellular_charge().value - before;
  return result;
}

}  // namespace d2dhb::scenario

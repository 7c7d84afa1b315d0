// Fig. 14 — "a part of the captured cellular signaling traffic": the
// NetOptiMaster-style layer-3 listing for one heartbeat via the original
// system and one aggregated relay transmission.
#include <iostream>
#include <memory>

#include "apps/heartbeat_app.hpp"
#include "bench_util.hpp"
#include "radio/capture.hpp"
#include "scenario/scenario.hpp"

using namespace d2dhb;

namespace {

/// The `seq`-th standard heartbeat of `origin`'s primary app.
net::HeartbeatMessage heartbeat(scenario::Scenario& world, NodeId origin,
                                std::uint64_t seq) {
  return net::make_heartbeat(origin, apps::app_id_for(origin, 0), seq,
                             net::kStandardHeartbeatSize, seconds(270),
                             world.sim().now());
}

}  // namespace

int main() {
  bench::print_header(
      "Fig. 14: captured layer-3 signaling (NetOptiMaster view)",
      "RRC connection establishment/release message listing per "
      "heartbeat transmission");

  scenario::Scenario world;
  core::PhoneConfig pc;
  pc.mobility = std::make_unique<mobility::StaticMobility>(
      mobility::Vec2{0.0, 0.0});
  core::Phone& phone = world.add_phone(std::move(pc));

  // One isolated 54 B heartbeat: a full WCDMA RRC cycle.
  net::UplinkBundle single;
  single.sender = phone.id();
  single.messages = {heartbeat(world, phone.id(), 1)};
  phone.modem().transmit(std::move(single));
  world.run_for(seconds(15));

  std::cout << "\nOriginal system — one heartbeat, one full RRC cycle ("
            << world.bs().signaling().total() << " L3 messages):\n";
  radio::print_capture(std::cout, world.bs().signaling().records());

  // The relay's aggregate: 3 heartbeats, one cycle, one extra
  // radio-bearer reconfiguration for the larger payload.
  world.bs().signaling().clear();
  net::UplinkBundle aggregate;
  aggregate.sender = phone.id();
  aggregate.messages = {heartbeat(world, phone.id(), 2),
                        heartbeat(world, NodeId{21}, 1),
                        heartbeat(world, NodeId{22}, 1)};
  phone.modem().transmit(std::move(aggregate));
  world.run_for(seconds(15));

  std::cout << "\nD2D framework — relay aggregate of 3 heartbeats, still "
               "one cycle ("
            << world.bs().signaling().total() << " L3 messages):\n";
  radio::print_capture(std::cout, world.bs().signaling().records());

  std::cout << "\nThree heartbeats now cost "
            << world.bs().signaling().total()
            << " L3 messages instead of 3 x 8 = 24.\n";
  return 0;
}

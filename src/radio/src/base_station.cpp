#include "radio/base_station.hpp"

namespace d2dhb::radio {

BaseStation::BaseStation(sim::Simulator& sim, net::ImServer& server,
                         net::Channel::Params backhaul, std::uint64_t key,
                         std::size_t cell)
    : backhaul_(sim, backhaul, key),
      signaling_(sim.shard_count()),
      cell_(cell) {
  backhaul_.set_receiver(
      [&server](const net::UplinkBundle& bundle) { server.deliver(bundle); });
  auto& reg = sim.metrics();
  const metrics::Labels labels{0, static_cast<std::int64_t>(cell_), "bs"};
  bundles_ctr_ = &reg.counter("bs.bundles_received", labels);
  heartbeats_ctr_ = &reg.counter("bs.heartbeats_received", labels);
  bytes_ctr_ = &reg.counter("bs.bytes_received", labels);
  reg.gauge_fn("signaling.l3_total", labels, *this, [](BaseStation& bs) {
    return static_cast<double>(bs.signaling_.total());
  });
}

void BaseStation::receive(const net::UplinkBundle& bundle) {
  bundles_ctr_->inc();
  heartbeats_ctr_->inc(bundle.messages.size());
  bytes_ctr_->inc(bundle.payload_size().value);
  backhaul_.send(bundle);
}

}  // namespace d2dhb::radio

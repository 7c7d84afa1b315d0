// Base station: terminates modem uplinks and forwards heartbeats over a
// backhaul channel to the IM server. Owns the cell's signaling counters
// (one per strip) so control-channel load can be inspected per cell.
#pragma once

#include <cstdint>

#include "metrics/registry.hpp"
#include "net/channel.hpp"
#include "net/im_server.hpp"
#include "radio/signaling.hpp"
#include "sim/simulator.hpp"

namespace d2dhb::radio {

class BaseStation {
 public:
  /// `key` seeds the backhaul's loss draws (net::Channel). `cell`
  /// labels this station's metrics (site index in multi-cell scenarios;
  /// 0 for single-cell setups).
  BaseStation(sim::Simulator& sim, net::ImServer& server,
              net::Channel::Params backhaul, std::uint64_t key,
              std::size_t cell = 0);

  /// Uplink entry point — wire this as every modem's UplinkHandler.
  void receive(const net::UplinkBundle& bundle);

  CellSignaling& signaling() { return signaling_; }

  std::size_t cell() const { return cell_; }
  std::uint64_t bundles_received() const { return bundles_ctr_->value(); }
  std::uint64_t heartbeats_received() const {
    return heartbeats_ctr_->value();
  }
  std::uint64_t bytes_received() const { return bytes_ctr_->value(); }

 private:
  net::Channel backhaul_;
  CellSignaling signaling_;
  std::size_t cell_;

  // Registry-backed counters (owned by the simulator's registry).
  metrics::Counter* bundles_ctr_;
  metrics::Counter* heartbeats_ctr_;
  metrics::Counter* bytes_ctr_;
};

}  // namespace d2dhb::radio

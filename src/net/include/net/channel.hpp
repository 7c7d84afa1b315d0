// Point-to-point delivery with latency and loss, driven by the simulator.
// Used for the BS -> IM-server backhaul and anywhere an unreliable hop
// needs modeling. A delivery runs on the sender's kernel: the receiving
// end (the IM server) is thread-safe, and each of its sessions is only
// ever fed from one strip, so per-session order is the kernel's
// (when, seq) order.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/rng.hpp"
#include "common/units.hpp"
#include "net/message.hpp"
#include "sim/simulator.hpp"

namespace d2dhb::net {

class Channel {
 public:
  struct Params {
    Duration latency{milliseconds(50)};
    double loss_probability{0.0};
  };

  using Receiver = std::function<void(const UplinkBundle&)>;

  Channel(sim::Simulator& sim, Params params, Rng rng);

  void set_receiver(Receiver receiver) { receiver_ = std::move(receiver); }

  /// Queues a bundle; it arrives after the latency unless lost.
  /// Returns whether the bundle survived the loss draw.
  bool send(UplinkBundle bundle);

  std::uint64_t sent() const;
  std::uint64_t delivered() const;
  std::uint64_t dropped() const;

 private:
  /// Per-shard state: senders on different kernels draw from their own
  /// loss rng and bump their own counters (deliveries run on the
  /// sender's kernel too), so concurrent sends stay deterministic per
  /// strip. One kernel means one lane holding the channel's original
  /// rng — the classic single-stream behaviour.
  struct Lane {
    Rng rng;
    std::uint64_t sent{0};
    std::uint64_t dropped{0};
    std::uint64_t delivered{0};
  };

  sim::Simulator& sim_;
  Params params_;
  Receiver receiver_;
  std::vector<Lane> lanes_;
};

}  // namespace d2dhb::net

// Point-to-point delivery with latency and loss, driven by the simulator.
// Used for the BS -> IM-server backhaul and anywhere an unreliable hop
// needs modeling. A delivery runs on the sender's kernel into the
// receiving end's lane for that strip (the IM server keeps one session
// table per strip), so no lock is taken and per-session order is the
// kernel's (when, seq) order. Whether a bundle is lost is a keyed draw
// (common/rng.hpp) of who sent it, when, and its first message, so it
// does not depend on which strip or thread sends it.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>

#include "common/units.hpp"
#include "net/message.hpp"
#include "sim/simulator.hpp"

namespace d2dhb::net {

class Channel {
 public:
  struct Params {
    double loss_probability{0.0};
  };

  using Receiver = std::function<void(const UplinkBundle&)>;

  /// `key` seeds the loss draws; channels with distinct keys lose
  /// independently.
  Channel(sim::Simulator& sim, Params params, std::uint64_t key);

  void set_receiver(Receiver receiver) { receiver_ = std::move(receiver); }

  /// Queues a bundle; it arrives 50 ms later unless lost. A
  /// bundle is lost when KeyedDraw{key, sender, now, first message id}
  /// (word 0 for a bundle with no messages) falls below the loss
  /// probability; at probability 0 nothing is drawn. Returns whether
  /// the bundle survived.
  bool send(UplinkBundle bundle);

  std::uint64_t sent() const { return sent_.load(std::memory_order_relaxed); }
  std::uint64_t delivered() const {
    return delivered_.load(std::memory_order_relaxed);
  }
  std::uint64_t dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }

 private:
  sim::Simulator& sim_;
  Params params_;
  std::uint64_t key_;
  Receiver receiver_;
  // Senders on different kernels count concurrently; relaxed atomics
  // like the metrics registry's counters (a total is read after a run).
  std::atomic<std::uint64_t> sent_{0};
  std::atomic<std::uint64_t> dropped_{0};
  std::atomic<std::uint64_t> delivered_{0};
};

}  // namespace d2dhb::net

// Spatial partitioning rule for the sharded world.
//
// Shards are vertical strips of the scenario area: shard k owns
// x ∈ [min_x + k·(width/shards), min_x + (k+1)·(width/shards)). A
// node's home shard is fixed at creation time from its initial
// position — mobility may carry a phone across a strip boundary, and
// that is fine: shard assignment decides which kernel hosts the node's
// timers, its uplinks and its D2D links. The medium never links nodes
// homed to different strips, so kernels never interact and each runs
// independently (sim/engine.hpp). Strips are hundreds of meters wide
// at crowd scale against a ~30 m D2D range, so the confinement only
// trims pairs straddling a strip boundary.
#pragma once

#include <algorithm>
#include <cstdint>

#include "mobility/mobility.hpp"

namespace d2dhb::world {

struct ShardPlan {
  /// Number of kernels in the world. 1 = the classic single-kernel run.
  std::size_t shards{1};
  /// Strip geometry. width <= 0 places every node on shard 0 (useful
  /// when the scenario has no meaningful extent).
  double min_x{0.0};
  double width{0.0};

  std::uint32_t shard_for(mobility::Vec2 position) const {
    if (shards <= 1 || width <= 0.0) return 0;
    const double strip = width / static_cast<double>(shards);
    const auto raw = static_cast<std::int64_t>((position.x - min_x) / strip);
    const auto last = static_cast<std::int64_t>(shards) - 1;
    return static_cast<std::uint32_t>(std::clamp<std::int64_t>(raw, 0, last));
  }
};

}  // namespace d2dhb::world

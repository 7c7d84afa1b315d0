// D2D Detector — relay discovery and matching pre-judgment.
//
// Section III-C: before establishing a D2D connection the UE makes a
// pre-judgment on (a) the RSSI-estimated distance to each discovered
// relay and (b) the relay's remaining capacity, and "tries to match the
// available relay with the shortest distance". If nothing qualifies the
// heartbeat goes out over cellular directly.
#pragma once

#include <optional>
#include <vector>

#include "common/id.hpp"
#include "common/units.hpp"
#include "d2d/energy_profile.hpp"
#include "d2d/medium.hpp"

namespace d2dhb::core {

enum class MatchStrategy {
  nearest,  ///< The paper's policy: shortest estimated distance.
  random,   ///< Ablation baseline: any qualifying relay.
  first,    ///< Ablation baseline: discovery order.
};

struct MatchPolicy {
  MatchStrategy strategy{MatchStrategy::nearest};
  /// Relays farther than this are rejected outright (energy
  /// pre-judgment). Defaults to the break-even distance below.
  Meters max_distance{12.0};
  /// Require advertised remaining capacity > 0.
  bool require_capacity{true};
};

/// Distance at which a single D2D heartbeat send costs as much cellular
/// charge as one direct cellular heartbeat — beyond it the UE would
/// spend *more* energy using the relay (Fig. 12's crossover).
Meters break_even_distance(const d2d::D2dEnergyProfile& d2d,
                           MicroAmpHours cellular_per_heartbeat,
                           Bytes heartbeat_size);

/// Picks the relay to pair with among one discovery's answers, or
/// nullopt => send via cellular. The random strategy's pick is keyed by
/// (key, ue, now): the medium's world key, the matching UE and the
/// match time, so it is the same however the world is cut or driven.
std::optional<d2d::DiscoveredPeer> match_relay(
    const MatchPolicy& policy,
    const std::vector<d2d::DiscoveredPeer>& discovered, std::uint64_t key,
    NodeId ue, TimePoint now);

}  // namespace d2dhb::core

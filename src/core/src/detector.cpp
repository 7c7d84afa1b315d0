#include "core/detector.hpp"

#include <algorithm>
#include <cmath>

#include "common/rng.hpp"

namespace d2dhb::core {

Meters break_even_distance(const d2d::D2dEnergyProfile& d2d,
                           MicroAmpHours cellular_per_heartbeat,
                           Bytes heartbeat_size) {
  // Solve send_charge(size, d) == cellular_per_heartbeat for d:
  //   base · (1 + f·(d - ref)²) = E_c  =>  d = ref + sqrt((E_c/base - 1)/f)
  const double base = d2d.send_charge(heartbeat_size, d2d.reference_distance)
                          .value;
  if (base <= 0.0 || cellular_per_heartbeat.value <= base ||
      d2d.distance_factor <= 0.0) {
    return Meters{0.0};
  }
  const double ratio = cellular_per_heartbeat.value / base - 1.0;
  return Meters{d2d.reference_distance.value +
                std::sqrt(ratio / d2d.distance_factor)};
}

std::optional<d2d::DiscoveredPeer> match_relay(
    const MatchPolicy& policy,
    const std::vector<d2d::DiscoveredPeer>& discovered, std::uint64_t key,
    NodeId ue, TimePoint now) {
  std::vector<d2d::DiscoveredPeer> candidates;
  for (const auto& peer : discovered) {
    if (!peer.advert.offers_relay) continue;
    if (policy.require_capacity && peer.advert.capacity_remaining == 0) {
      continue;
    }
    if (peer.estimated_distance.value > policy.max_distance.value) continue;
    candidates.push_back(peer);
  }
  if (candidates.empty()) return std::nullopt;
  switch (policy.strategy) {
    case MatchStrategy::nearest:
      return *std::min_element(candidates.begin(), candidates.end(),
                               [](const auto& a, const auto& b) {
                                 return a.estimated_distance.value <
                                        b.estimated_distance.value;
                               });
    case MatchStrategy::random: {
      // Peer word 0 names no node, so this never repeats a scan draw.
      const KeyedDraw pick{key, ue.value, 0,
                           static_cast<std::uint64_t>(
                               now.time_since_epoch().count())};
      const auto i = static_cast<std::size_t>(
          pick.uniform() * static_cast<double>(candidates.size()));
      return candidates[std::min(i, candidates.size() - 1)];
    }
    case MatchStrategy::first:
      return candidates.front();
  }
  return std::nullopt;
}

}  // namespace d2dhb::core

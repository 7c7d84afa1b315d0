#include "core/operator_selection.hpp"

#include <algorithm>
#include <unordered_set>

#include "mobility/spatial_grid.hpp"

namespace d2dhb::core {

namespace {

bool eligible(const RelayCandidate& c, const SelectionConfig& config) {
  return c.volunteers && c.battery_level >= config.min_battery;
}

std::size_t budget(const SelectionConfig& config, std::size_t eligible_n) {
  return config.max_relays == 0 ? eligible_n
                                : std::min(config.max_relays, eligible_n);
}

/// World index over the candidate layout; every radius count below goes
/// through it instead of an all-pairs distance loop. Cell size = the
/// coverage radius, so a query touches at most one neighbour ring.
mobility::PointGrid candidate_grid(
    const std::vector<RelayCandidate>& candidates, Meters coverage_radius) {
  mobility::PointGrid grid{coverage_radius.value > 0.0 ? coverage_radius
                                                       : Meters{1.0}};
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    grid.insert(i, candidates[i].position);
  }
  return grid;
}

}  // namespace

double coverage_of(const std::vector<RelayCandidate>& candidates,
                   const std::vector<NodeId>& relays,
                   Meters coverage_radius) {
  // detlint: allow(unordered-state): membership tests only (contains),
  // never iterated — coverage loops walk the candidates vector in order.
  std::unordered_set<NodeId> relay_set(relays.begin(), relays.end());
  // Index only the relay positions: each non-relay is covered iff some
  // relay lies within the coverage radius (early-exit point query).
  mobility::PointGrid relay_grid{coverage_radius.value > 0.0
                                     ? coverage_radius
                                     : Meters{1.0}};
  for (const auto& c : candidates) {
    if (relay_set.contains(c.node)) relay_grid.insert(0, c.position);
  }
  std::size_t others = 0;
  std::size_t covered = 0;
  for (const auto& c : candidates) {
    if (relay_set.contains(c.node)) continue;
    ++others;
    if (relay_grid.any_within(c.position, coverage_radius)) ++covered;
  }
  return others == 0 ? 1.0
                     : static_cast<double>(covered) /
                           static_cast<double>(others);
}

SelectionResult select_relays(const std::vector<RelayCandidate>& candidates,
                              const SelectionConfig& config, Rng& rng) {
  std::vector<std::size_t> pool;  // indices of eligible volunteers
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    if (eligible(candidates[i], config)) pool.push_back(i);
  }
  const std::size_t want = budget(config, pool.size());

  SelectionResult result;
  switch (config.policy) {
    case SelectionPolicy::random: {
      // Fisher-Yates prefix shuffle of the pool.
      for (std::size_t i = 0; i < want; ++i) {
        const std::size_t j = i + rng.uniform_int(0, pool.size() - 1 - i);
        std::swap(pool[i], pool[j]);
        result.relays.push_back(candidates[pool[i]].node);
      }
      break;
    }
    case SelectionPolicy::density: {
      const mobility::PointGrid grid =
          candidate_grid(candidates, config.coverage_radius);
      std::vector<std::pair<std::size_t, std::size_t>> ranked;  // (nbrs, idx)
      for (const std::size_t i : pool) {
        // count_within includes the candidate itself (distance 0).
        const std::size_t neighbours =
            grid.count_within(candidates[i].position,
                              config.coverage_radius) -
            1;
        ranked.emplace_back(neighbours, i);
      }
      std::sort(ranked.begin(), ranked.end(), [&](const auto& a,
                                                  const auto& b) {
        if (a.first != b.first) return a.first > b.first;
        return candidates[a.second].node < candidates[b.second].node;
      });
      for (std::size_t k = 0; k < want; ++k) {
        result.relays.push_back(candidates[ranked[k].second].node);
      }
      break;
    }
    case SelectionPolicy::coverage_greedy: {
      const mobility::PointGrid grid =
          candidate_grid(candidates, config.coverage_radius);
      std::vector<bool> covered(candidates.size(), false);
      // detlint: allow(unordered-state): membership tests only; the
      // greedy rounds iterate `pool` (a vector) in candidate order.
      std::unordered_set<std::size_t> chosen;
      std::vector<std::size_t> in_radius;
      for (std::size_t round = 0; round < want; ++round) {
        std::size_t best = SIZE_MAX;
        std::size_t best_gain = 0;
        for (const std::size_t i : pool) {
          if (chosen.contains(i)) continue;
          std::size_t gain = 0;
          grid.query_radius(candidates[i].position, config.coverage_radius,
                            in_radius);
          for (const std::size_t j : in_radius) {
            if (j == i || covered[j] || chosen.contains(j)) continue;
            ++gain;
          }
          // Ties broken by node id for determinism; a relay with zero
          // marginal gain is still picked if budget remains (it serves
          // itself by not paying relay-search costs).
          if (best == SIZE_MAX || gain > best_gain ||
              (gain == best_gain &&
               candidates[i].node < candidates[best].node)) {
            best = i;
            best_gain = gain;
          }
        }
        if (best == SIZE_MAX) break;
        chosen.insert(best);
        result.relays.push_back(candidates[best].node);
        grid.query_radius(candidates[best].position, config.coverage_radius,
                          in_radius);
        for (const std::size_t j : in_radius) {
          if (covered[j] || chosen.contains(j)) continue;
          covered[j] = true;
        }
      }
      break;
    }
  }
  result.covered_fraction =
      coverage_of(candidates, result.relays, config.coverage_radius);
  return result;
}

}  // namespace d2dhb::core

// Operator-side relay selection.
//
// "Mobile operators could select relays among the participating
// smartphone users" (Section I). Given the candidate phones (position,
// battery, willingness), the operator picks a relay set under a budget.
// Three policies are provided — the coverage-greedy one is the
// deployment-sensible default, the others are ablation baselines.
#pragma once

#include <cstddef>
#include <vector>

#include "common/id.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"
#include "mobility/mobility.hpp"

namespace d2dhb::core {

/// One phone volunteering (or not) to relay.
struct RelayCandidate {
  NodeId node;
  mobility::Vec2 position;
  /// Remaining battery fraction in [0, 1]; low-battery phones should
  /// not be drafted (they'd die mid-service, Section III-A's failure
  /// case).
  double battery_level{1.0};
  bool volunteers{true};
};

enum class SelectionPolicy {
  random,           ///< Any eligible volunteer.
  density,          ///< Most neighbours within coverage radius first.
  coverage_greedy,  ///< Greedy maximum coverage of the remaining phones.
};

struct SelectionConfig {
  SelectionPolicy policy{SelectionPolicy::coverage_greedy};
  /// A phone counts as covered if some selected relay is within this
  /// distance (defaults to the D2D matching pre-judgment cutoff).
  Meters coverage_radius{12.0};
  /// Operator budget: at most this many relays (0 = unlimited).
  std::size_t max_relays{0};
  /// Volunteers below this battery fraction are ineligible.
  double min_battery{0.3};
};

struct SelectionResult {
  std::vector<NodeId> relays;
  /// Fraction of non-relay candidates within coverage of some relay.
  double covered_fraction{0.0};
};

/// Picks the relay set. Deterministic for a given rng state.
SelectionResult select_relays(const std::vector<RelayCandidate>& candidates,
                              const SelectionConfig& config, Rng& rng);

/// Coverage of an explicit relay set over the remaining candidates
/// (exposed for tests and for evaluating externally chosen sets).
double coverage_of(const std::vector<RelayCandidate>& candidates,
                   const std::vector<NodeId>& relays,
                   Meters coverage_radius);

}  // namespace d2dhb::core

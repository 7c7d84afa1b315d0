// World index: uniform-cell spatial hashing over node positions.
//
// Every dense-proximity consumer (D2D discovery scans, range-exit
// sweeps, operator relay selection, nearest-cell attach) used to walk
// all nodes; at crowd scale those all-pairs loops dominate the run.
// The grid answers "who is within r of here" by visiting only the
// overlapping cells, with results in deterministic NodeId/index order
// so seeded runs stay bit-identical regardless of bucket layout.
//
// Two layers:
//  * PointGrid — static Vec2 points with a caller-chosen index. Built
//    once; used for layout-time queries (relay selection, coverage
//    accounting, cell-site attach).
//  * SpatialGrid — NodeId-keyed index over live MobilityModel
//    trajectories. Positions are cached and refreshed lazily, keyed on
//    sim time (see refresh()): static nodes are binned once, moving
//    nodes re-bin only when a query arrives at a new timestamp, so all
//    queries within one event instant share a single refresh.
#pragma once

#include <cmath>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/id.hpp"
#include "common/units.hpp"
#include "mobility/mobility.hpp"

namespace d2dhb::mobility {

namespace detail {
/// Integer cell coordinate of a position along one axis.
inline std::int64_t cell_coord(double v, double cell_size) {
  return static_cast<std::int64_t>(std::floor(v / cell_size));
}
/// Packs the two 32-bit-ish cell coordinates into one hashable key.
inline std::uint64_t cell_key(std::int64_t cx, std::int64_t cy) {
  return (static_cast<std::uint64_t>(cx) << 32) ^
         static_cast<std::uint64_t>(cy & 0xffffffff);
}
}  // namespace detail

/// Spatial hash over immutable points. Indices are caller-defined
/// (e.g. candidate array offsets or cell-site numbers); queries return
/// them sorted ascending, which makes downstream iteration order — and
/// therefore any RNG consumption — independent of bucket layout.
class PointGrid {
 public:
  /// `cell_size` is normally the query radius of interest (one ring of
  /// neighbour cells then suffices); must be > 0.
  explicit PointGrid(Meters cell_size);

  void insert(std::size_t index, Vec2 position);
  std::size_t size() const { return points_.size(); }
  Meters cell_size() const { return Meters{cell_size_}; }

  /// Indices of all points with distance(center, p) <= radius, sorted
  /// ascending. `out` is cleared first.
  void query_radius(Vec2 center, Meters radius,
                    std::vector<std::size_t>& out) const;

  /// Number of points within `radius` of `center`.
  std::size_t count_within(Vec2 center, Meters radius) const;

  /// True if any point lies within `radius` of `center` (early exit).
  bool any_within(Vec2 center, Meters radius) const;

  /// Index of the nearest point (ties broken by lowest index — the same
  /// rule as a first-strictly-closer linear scan). Requires size() > 0
  /// and a finite center.
  std::size_t nearest(Vec2 center) const;

 private:
  struct Point {
    std::size_t index;
    Vec2 position;
  };

  /// Walks the cells overlapping the square of half-width `radius`
  /// around `center`, clamped to the occupied-cell bounding box, and
  /// hands each point to `visit` until it returns true.
  template <typename Visit>
  void visit_cells(Vec2 center, Meters radius, Visit&& visit) const;

  double cell_size_;
  std::vector<Point> points_;
  /// Cell-coordinate bounding box of every inserted point (empty —
  /// lo > hi — until the first insert). No bucket lies outside it.
  std::int64_t lo_x_{INT64_MAX}, hi_x_{INT64_MIN};
  std::int64_t lo_y_{INT64_MAX}, hi_y_{INT64_MIN};
  // detlint: allow(unordered-state): buckets are looked up by key only,
  // never iterated; query results are sorted before they escape.
  std::unordered_map<std::uint64_t, std::vector<std::uint32_t>> buckets_;
};

/// Live world index over MobilityModel trajectories, keyed by NodeId.
///
/// Determinism rules (relied on by the seeded-run equivalence tests):
///  * query results are sorted by NodeId ascending;
///  * distances are computed with the exact same `mobility::distance`
///    arithmetic as a brute-force scan, so the admitted set is
///    identical bit for bit;
///  * the grid never reorders or batches RNG draws itself — it only
///    produces candidate sets.
///
/// Refresh policy: `position_at` is authoritative and is what queries
/// compare against; the cached cell binning is refreshed lazily when a
/// query's time differs from the cache's (simulated time never goes
/// backwards, so time equality is what makes a cache hit valid). Nodes whose
/// model reports `is_static()` are binned once on insert and never
/// touched again; only moving nodes pay the per-timestamp re-bin.
class SpatialGrid {
 public:
  explicit SpatialGrid(Meters cell_size);

  void insert(NodeId node, const MobilityModel& model);
  void remove(NodeId node);
  bool contains(NodeId node) const;
  std::size_t size() const { return index_.size(); }
  Meters cell_size() const { return Meters{cell_size_}; }

  /// Exact position of a registered node at `t` (straight from the
  /// model — never the cached copy).
  Vec2 position(NodeId node, TimePoint t) const;
  const MobilityModel* model(NodeId node) const;

  /// One query hit: the node and its exact distance from the center.
  struct Neighbor {
    NodeId node;
    Meters distance;
  };

  /// All registered nodes (minus `exclude`) within `radius` of
  /// `center` at time `t`, sorted by NodeId ascending. `out` is
  /// cleared first. Repeated queries at one time share a single
  /// re-bin.
  void query_radius(Vec2 center, Meters radius, TimePoint t,
                    std::vector<Neighbor>& out,
                    NodeId exclude = NodeId::invalid()) const;

  /// Number of nodes (minus `exclude`) within `radius` of `center`.
  std::size_t count_within(Vec2 center, Meters radius, TimePoint t,
                           NodeId exclude = NodeId::invalid()) const;

  /// Invariant audit (the D2DHB_AUDIT layer): refreshes to `t`
  /// and verifies cache freshness and binning consistency — the slot
  /// table holds exactly size() slots (no tombstones), the NodeId
  /// lookup is strictly ascending and each entry points at the slot
  /// holding that node, every cached position matches its model at t,
  /// every slot's cell key matches its cached position, every slot sits
  /// in exactly one bucket (the right one), and `moving_` lists exactly
  /// the non-static slots. Throws std::logic_error naming the violation.
  void audit(TimePoint t) const;

  /// Test backdoor (corrupts internals for the audit tests).
  struct Internal;
  friend struct Internal;

 private:
  /// One registered node. Slots are dense — stored in insert order,
  /// with remove() moving the last slot into the hole — so the table
  /// holds exactly size() entries whatever the NodeId values are.
  struct Slot {
    NodeId node;
    const MobilityModel* model{nullptr};
    Vec2 cached{};
    std::uint64_t cell{0};
    bool is_static{false};
  };
  /// NodeId → slot lookup entry; `index_` keeps these sorted by node.
  struct Entry {
    std::uint64_t node;
    std::uint32_t slot;
  };

  /// Position in `index_` where `node` is or would be inserted.
  std::size_t lower_entry(std::uint64_t node) const;
  /// Position of `node`'s entry in `index_`, or index_.size().
  std::size_t entry_of(NodeId node) const;
  const Slot* slot_of(NodeId node) const;
  std::uint64_t key_of(Vec2 at) const;
  void unbin(std::uint32_t slot) const;
  void refresh(TimePoint t) const;
  /// Walks the buckets of every cell overlapping the square of
  /// half-width `r` around `center` and hands each slot to `visit`.
  template <typename Visit>
  void visit_cells(Vec2 center, double r, Visit&& visit) const;

  double cell_size_;
  /// Dense slot table; buckets_ and moving_ hold indices into it.
  mutable std::vector<Slot> slots_;
  /// NodeId → slot index, sorted by NodeId (one entry per slot). Only
  /// insert/remove/contains/position/model consult it; queries and
  /// refresh go through buckets_ and moving_ alone.
  std::vector<Entry> index_;
  // detlint: allow(unordered-state): key-only lookups; every query
  // sorts its hits by NodeId before returning, so bucket layout never
  // reaches sim-visible state (see determinism rules above).
  mutable std::unordered_map<std::uint64_t, std::vector<std::uint32_t>>
      buckets_;
  /// Slot indices of nodes whose model is not static — the only ones
  /// refreshed.
  std::vector<std::uint32_t> moving_;
  mutable TimePoint cached_time_{};
  mutable bool cache_primed_{false};
};

}  // namespace d2dhb::mobility

// World index: uniform-cell spatial hashing over points.
//
// Every dense-proximity consumer (D2D discovery scans, operator relay
// selection, coverage accounting, nearest-cell attach, the strip-wall
// pair count) used to walk all nodes; at crowd scale those all-pairs
// loops dominate the run. PointGrid answers "who is within r of here"
// by visiting only the overlapping cells, with results sorted by the
// caller's index so seeded runs stay bit-identical regardless of
// bucket layout. It holds plain positions: callers bin what does not
// move (cell sites, layout positions, static listening radios) and
// check moving things directly.
#pragma once

#include <cmath>
#include <cstdint>
#include <unordered_map>
#include <vector>

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

/// Spatial hash over points with caller-defined indices (candidate
/// array offsets, cell-site numbers, NodeId values). Queries return
/// indices sorted ascending, which makes downstream iteration order —
/// and therefore any RNG consumption — independent of bucket layout.
/// Distances use the exact `mobility::distance` arithmetic of a
/// brute-force scan, so the admitted set is identical bit for bit.
class PointGrid {
 public:
  /// `cell_size` is normally the query radius of interest (one ring of
  /// neighbour cells then suffices); must be > 0.
  explicit PointGrid(Meters cell_size);

  /// O(1) amortised. The caller keeps (index, position) pairs unique.
  void insert(std::size_t index, Vec2 position);
  /// Removes the point `index` inserted at exactly `position`, looking
  /// in that position's bucket only; false if there is none. The last
  /// point moves into the hole, so storage stays dense.
  bool remove(std::size_t index, Vec2 position);
  /// True if the point `index` is binned at exactly `position`.
  bool contains(std::size_t index, Vec2 position) const;
  std::size_t size() const { return points_.size(); }
  Meters cell_size() const { return Meters{cell_size_}; }

  /// One query hit: the point's index and its exact distance from the
  /// center.
  struct Hit {
    std::size_t index;
    Meters distance;
  };

  /// Indices of all points with distance(center, p) <= radius, sorted
  /// ascending. `out` is cleared first.
  void query_radius(Vec2 center, Meters radius,
                    std::vector<std::size_t>& out) const;
  /// The same points as hits carrying distance(center, p), sorted by
  /// index. `out` is cleared first.
  void query_radius(Vec2 center, Meters radius, std::vector<Hit>& out) const;

  /// Number of points within `radius` of `center`.
  std::size_t count_within(Vec2 center, Meters radius) const;

  /// True if any point lies within `radius` of `center` (early exit).
  bool any_within(Vec2 center, Meters radius) const;

  /// Index of the nearest point (ties broken by lowest index — the same
  /// rule as a first-strictly-closer linear scan). Requires size() > 0
  /// and a finite center.
  std::size_t nearest(Vec2 center) const;

  /// Invariant audit (the D2DHB_AUDIT layer): every point sits exactly
  /// once in the bucket of its own cell, inside the occupied-cell box;
  /// no bucket is empty; and the buckets hold exactly size() entries in
  /// all, so no entry is stale or out of range. Throws
  /// std::logic_error naming the violation.
  void audit() const;

  /// Test backdoor (corrupts internals for the audit tests).
  struct Internal;
  friend struct Internal;

 private:
  struct Point {
    std::size_t index;
    Vec2 position;
  };

  std::uint64_t key_of(Vec2 at) const;
  /// Position of the slot holding (index, position) inside `bucket`,
  /// or bucket.size().
  std::size_t find_in(const std::vector<std::uint32_t>& bucket,
                      std::size_t index, Vec2 position) const;

  /// Walks the cells overlapping the square of half-width `radius`
  /// around `center`, clamped to the occupied-cell bounding box, and
  /// hands each point to `visit` until it returns true.
  template <typename Visit>
  void visit_cells(Vec2 center, Meters radius, Visit&& visit) const;

  double cell_size_;
  /// Dense point storage; buckets hold slot numbers into it.
  std::vector<Point> points_;
  /// Cell-coordinate bounding box of every point ever inserted (empty —
  /// lo > hi — until the first insert; removal does not shrink it). No
  /// bucket lies outside it.
  std::int64_t lo_x_{INT64_MAX}, hi_x_{INT64_MIN};
  std::int64_t lo_y_{INT64_MAX}, hi_y_{INT64_MIN};
  // detlint: allow(unordered-state): buckets are looked up by key only,
  // never iterated; query results are sorted before they escape.
  std::unordered_map<std::uint64_t, std::vector<std::uint32_t>> buckets_;
};

}  // namespace d2dhb::mobility

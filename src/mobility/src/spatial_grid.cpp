#include "mobility/spatial_grid.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

namespace d2dhb::mobility {

PointGrid::PointGrid(Meters cell_size) : cell_size_(cell_size.value) {
  if (!(cell_size_ > 0.0)) {
    throw std::invalid_argument("PointGrid: cell size must be > 0");
  }
}

std::uint64_t PointGrid::key_of(Vec2 at) const {
  return detail::cell_key(detail::cell_coord(at.x, cell_size_),
                          detail::cell_coord(at.y, cell_size_));
}

void PointGrid::insert(std::size_t index, Vec2 position) {
  const auto slot = static_cast<std::uint32_t>(points_.size());
  points_.push_back(Point{index, position});
  const std::int64_t cx = detail::cell_coord(position.x, cell_size_);
  const std::int64_t cy = detail::cell_coord(position.y, cell_size_);
  lo_x_ = std::min(lo_x_, cx);
  hi_x_ = std::max(hi_x_, cx);
  lo_y_ = std::min(lo_y_, cy);
  hi_y_ = std::max(hi_y_, cy);
  buckets_[detail::cell_key(cx, cy)].push_back(slot);
}

std::size_t PointGrid::find_in(const std::vector<std::uint32_t>& bucket,
                               std::size_t index, Vec2 position) const {
  std::size_t k = 0;
  while (k < bucket.size() && !(points_[bucket[k]].index == index &&
                                points_[bucket[k]].position == position)) {
    ++k;
  }
  return k;
}

bool PointGrid::remove(std::size_t index, Vec2 position) {
  const auto it = buckets_.find(key_of(position));
  if (it == buckets_.end()) return false;
  std::vector<std::uint32_t>& bucket = it->second;
  const std::size_t k = find_in(bucket, index, position);
  if (k == bucket.size()) return false;
  // Order inside a bucket is irrelevant (queries sort), so the bucket
  // entry and the slot are both removed by swapping with the last one.
  const std::uint32_t hole = bucket[k];
  bucket[k] = bucket.back();
  bucket.pop_back();
  if (bucket.empty()) buckets_.erase(it);
  const auto last = static_cast<std::uint32_t>(points_.size() - 1);
  if (hole != last) {
    points_[hole] = points_[last];
    std::vector<std::uint32_t>& moved =
        buckets_.find(key_of(points_[hole].position))->second;
    *std::find(moved.begin(), moved.end(), last) = hole;
  }
  points_.pop_back();
  return true;
}

bool PointGrid::contains(std::size_t index, Vec2 position) const {
  const auto it = buckets_.find(key_of(position));
  return it != buckets_.end() &&
         find_in(it->second, index, position) != it->second.size();
}

template <typename Visit>
void PointGrid::visit_cells(Vec2 center, Meters radius, Visit&& visit) const {
  // Cells outside the occupied box hold no bucket, so clamping skips
  // only empty lookups: a far query walks the box, not the gap to it.
  const double r = radius.value;
  const std::int64_t x0 =
      std::max(lo_x_, detail::cell_coord(center.x - r, cell_size_));
  const std::int64_t x1 =
      std::min(hi_x_, detail::cell_coord(center.x + r, cell_size_));
  const std::int64_t y0 =
      std::max(lo_y_, detail::cell_coord(center.y - r, cell_size_));
  const std::int64_t y1 =
      std::min(hi_y_, detail::cell_coord(center.y + r, cell_size_));
  for (std::int64_t cx = x0; cx <= x1; ++cx) {
    for (std::int64_t cy = y0; cy <= y1; ++cy) {
      const auto it = buckets_.find(detail::cell_key(cx, cy));
      if (it == buckets_.end()) continue;
      for (const std::uint32_t slot : it->second) {
        if (visit(points_[slot])) return;
      }
    }
  }
}

void PointGrid::query_radius(Vec2 center, Meters radius,
                             std::vector<std::size_t>& out) const {
  out.clear();
  visit_cells(center, radius, [&](const Point& p) {
    if (distance(center, p.position).value <= radius.value) {
      out.push_back(p.index);
    }
    return false;
  });
  std::sort(out.begin(), out.end());
}

void PointGrid::query_radius(Vec2 center, Meters radius,
                             std::vector<Hit>& out) const {
  out.clear();
  visit_cells(center, radius, [&](const Point& p) {
    const Meters d = distance(center, p.position);
    if (d.value <= radius.value) out.push_back(Hit{p.index, d});
    return false;
  });
  std::sort(out.begin(), out.end(), [](const Hit& a, const Hit& b) {
    return a.index < b.index;
  });
}

std::size_t PointGrid::count_within(Vec2 center, Meters radius) const {
  std::size_t n = 0;
  visit_cells(center, radius, [&](const Point& p) {
    if (distance(center, p.position).value <= radius.value) ++n;
    return false;
  });
  return n;
}

bool PointGrid::any_within(Vec2 center, Meters radius) const {
  bool found = false;
  visit_cells(center, radius, [&](const Point& p) {
    if (distance(center, p.position).value <= radius.value) {
      found = true;
      return true;  // stop
    }
    return false;
  });
  return found;
}

std::size_t PointGrid::nearest(Vec2 center) const {
  if (points_.empty()) {
    throw std::out_of_range("PointGrid::nearest: grid is empty");
  }
  if (!std::isfinite(center.x) || !std::isfinite(center.y)) {
    throw std::invalid_argument("PointGrid::nearest: center is not finite");
  }
  // Expanding ring search: try radius = cell, 2*cell, ... and keep the
  // lexicographic (distance, index) minimum — the same winner as a
  // first-strictly-closer linear scan. The answer is final once the
  // best distance is covered by the searched radius, or once the ring
  // covers the occupied box (every point has then been seen).
  double best_d = std::numeric_limits<double>::max();
  std::size_t best_index = 0;
  for (double r = cell_size_;; r *= 2.0) {
    visit_cells(center, Meters{r}, [&](const Point& p) {
      const double d = distance(center, p.position).value;
      if (d < best_d || (d == best_d && p.index < best_index)) {
        best_d = d;
        best_index = p.index;
      }
      return false;
    });
    if (best_d <= r) return best_index;
    if (detail::cell_coord(center.x - r, cell_size_) <= lo_x_ &&
        detail::cell_coord(center.x + r, cell_size_) >= hi_x_ &&
        detail::cell_coord(center.y - r, cell_size_) <= lo_y_ &&
        detail::cell_coord(center.y + r, cell_size_) >= hi_y_) {
      return best_index;
    }
  }
}

namespace {
[[noreturn]] void grid_audit_fail(const std::string& what) {
  throw std::logic_error("PointGrid audit: " + what);
}
}  // namespace

void PointGrid::audit() const {
  for (std::size_t slot = 0; slot < points_.size(); ++slot) {
    const Point& p = points_[slot];
    const std::string who = "point " + std::to_string(p.index);
    const std::int64_t cx = detail::cell_coord(p.position.x, cell_size_);
    const std::int64_t cy = detail::cell_coord(p.position.y, cell_size_);
    if (cx < lo_x_ || cx > hi_x_ || cy < lo_y_ || cy > hi_y_) {
      grid_audit_fail(who + " lies outside the occupied-cell box");
    }
    const auto it = buckets_.find(detail::cell_key(cx, cy));
    if (it == buckets_.end() ||
        std::count(it->second.begin(), it->second.end(), slot) != 1) {
      grid_audit_fail(who + " is not binned exactly once in its cell");
    }
  }
  // With every point once in its own bucket, an excess here is a stale,
  // duplicate or misfiled entry somewhere.
  std::size_t binned = 0;
  // Audit-only integer total: the same in any bucket order.
  for (const auto& [cell, bucket] : buckets_) {
    if (bucket.empty()) grid_audit_fail("an empty bucket was left behind");
    binned += bucket.size();
  }
  if (binned != points_.size()) {
    grid_audit_fail("buckets hold " + std::to_string(binned) +
                    " entries for " + std::to_string(points_.size()) +
                    " points");
  }
}

}  // namespace d2dhb::mobility

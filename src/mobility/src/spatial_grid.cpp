#include "mobility/spatial_grid.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace d2dhb::mobility {

// ---------------------------------------------------------------------------
// PointGrid
// ---------------------------------------------------------------------------

PointGrid::PointGrid(Meters cell_size) : cell_size_(cell_size.value) {
  if (!(cell_size_ > 0.0)) {
    throw std::invalid_argument("PointGrid: cell size must be > 0");
  }
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

// ---------------------------------------------------------------------------
// SpatialGrid
// ---------------------------------------------------------------------------

SpatialGrid::SpatialGrid(Meters cell_size) : cell_size_(cell_size.value) {
  if (!(cell_size_ > 0.0)) {
    throw std::invalid_argument("SpatialGrid: cell size must be > 0");
  }
}

std::size_t SpatialGrid::lower_entry(std::uint64_t node) const {
  return static_cast<std::size_t>(
      std::lower_bound(
          index_.begin(), index_.end(), node,
          [](const Entry& e, std::uint64_t id) { return e.node < id; }) -
      index_.begin());
}

std::size_t SpatialGrid::entry_of(NodeId node) const {
  const std::size_t k = lower_entry(node.value);
  return k < index_.size() && index_[k].node == node.value ? k
                                                           : index_.size();
}

const SpatialGrid::Slot* SpatialGrid::slot_of(NodeId node) const {
  const std::size_t k = entry_of(node);
  return k == index_.size() ? nullptr : &slots_[index_[k].slot];
}

std::uint64_t SpatialGrid::key_of(Vec2 at) const {
  return detail::cell_key(detail::cell_coord(at.x, cell_size_),
                          detail::cell_coord(at.y, cell_size_));
}

void SpatialGrid::unbin(std::uint32_t slot) const {
  // Removal by swap: order inside a bucket is irrelevant because
  // queries sort by NodeId.
  auto& bucket = buckets_[slots_[slot].cell];
  const auto it = std::find(bucket.begin(), bucket.end(), slot);
  if (it != bucket.end()) {
    *it = bucket.back();
    bucket.pop_back();
  }
}

void SpatialGrid::insert(NodeId node, const MobilityModel& model) {
  if (!node.valid()) {
    throw std::invalid_argument("SpatialGrid::insert: invalid node id");
  }
  remove(node);
  const auto slot = static_cast<std::uint32_t>(slots_.size());
  index_.insert(index_.begin() + static_cast<std::ptrdiff_t>(
                                     lower_entry(node.value)),
                Entry{node.value, slot});
  // Bin at the last refreshed time (static nodes are time-invariant, and
  // moving nodes are re-binned by the next refresh anyway).
  const Vec2 at = model.position_at(cached_time_);
  slots_.push_back(Slot{node, &model, at, key_of(at), model.is_static()});
  buckets_[slots_.back().cell].push_back(slot);
  if (!slots_.back().is_static) moving_.push_back(slot);
}

void SpatialGrid::remove(NodeId node) {
  const std::size_t k = entry_of(node);
  if (k == index_.size()) return;
  const std::uint32_t hole = index_[k].slot;
  index_.erase(index_.begin() + static_cast<std::ptrdiff_t>(k));
  unbin(hole);
  if (!slots_[hole].is_static) {
    const auto it = std::find(moving_.begin(), moving_.end(), hole);
    if (it != moving_.end()) {
      *it = moving_.back();
      moving_.pop_back();
    }
  }
  // Keep the table dense: the last slot moves into the hole, and its
  // bucket, moving_ and lookup entries follow it.
  const auto last = static_cast<std::uint32_t>(slots_.size() - 1);
  if (hole != last) {
    const Slot& moved = slots_[hole] = slots_[last];
    auto& bucket = buckets_[moved.cell];
    std::replace(bucket.begin(), bucket.end(), last, hole);
    if (!moved.is_static) {
      std::replace(moving_.begin(), moving_.end(), last, hole);
    }
    index_[entry_of(moved.node)].slot = hole;
  }
  slots_.pop_back();
}

bool SpatialGrid::contains(NodeId node) const {
  return entry_of(node) != index_.size();
}

Vec2 SpatialGrid::position(NodeId node, TimePoint t) const {
  const Slot* slot = slot_of(node);
  if (slot == nullptr) {
    throw std::out_of_range("SpatialGrid: unknown node #" +
                            std::to_string(node.value));
  }
  return slot->model->position_at(t);
}

const MobilityModel* SpatialGrid::model(NodeId node) const {
  const Slot* slot = slot_of(node);
  return slot == nullptr ? nullptr : slot->model;
}

void SpatialGrid::refresh(TimePoint t) const {
  if (cache_primed_ && t == cached_time_) return;
  for (const std::uint32_t i : moving_) {
    Slot& slot = slots_[i];
    const Vec2 at = slot.model->position_at(t);
    const std::uint64_t cell = key_of(at);
    slot.cached = at;
    if (cell == slot.cell) continue;
    unbin(i);
    slot.cell = cell;
    buckets_[cell].push_back(i);
  }
  cached_time_ = t;
  cache_primed_ = true;
}

template <typename Visit>
void SpatialGrid::visit_cells(Vec2 center, double r, Visit&& visit) const {
  const std::int64_t x0 = detail::cell_coord(center.x - r, cell_size_);
  const std::int64_t x1 = detail::cell_coord(center.x + r, cell_size_);
  const std::int64_t y0 = detail::cell_coord(center.y - r, cell_size_);
  const std::int64_t y1 = detail::cell_coord(center.y + r, cell_size_);
  for (std::int64_t cx = x0; cx <= x1; ++cx) {
    for (std::int64_t cy = y0; cy <= y1; ++cy) {
      const auto it = buckets_.find(detail::cell_key(cx, cy));
      if (it == buckets_.end()) continue;
      for (const std::uint32_t i : it->second) visit(slots_[i]);
    }
  }
}

void SpatialGrid::query_radius(Vec2 center, Meters radius, TimePoint t,
                               std::vector<Neighbor>& out,
                               NodeId exclude) const {
  out.clear();
  refresh(t);
  visit_cells(center, radius.value, [&](const Slot& slot) {
    if (slot.node == exclude) return;
    // The cached position IS the position at t (refresh above), so the
    // distance test matches a brute-force scan bit for bit.
    const Meters d = distance(center, slot.cached);
    if (d.value <= radius.value) out.push_back(Neighbor{slot.node, d});
  });
  std::sort(out.begin(), out.end(),
            [](const Neighbor& a, const Neighbor& b) {
              return a.node < b.node;
            });
}

std::size_t SpatialGrid::count_within(Vec2 center, Meters radius,
                                      TimePoint t, NodeId exclude) const {
  refresh(t);
  std::size_t n = 0;
  visit_cells(center, radius.value, [&](const Slot& slot) {
    if (slot.node != exclude &&
        distance(center, slot.cached).value <= radius.value) {
      ++n;
    }
  });
  return n;
}

namespace {
[[noreturn]] void grid_audit_fail(const std::string& what) {
  throw std::logic_error("SpatialGrid audit: " + what);
}
}  // namespace

void SpatialGrid::audit(TimePoint t) const {
  refresh(t);
  if (!cache_primed_ || cached_time_ != t) {
    grid_audit_fail("cache not fresh after refresh");
  }
  if (slots_.size() != size()) {
    grid_audit_fail("slot count " + std::to_string(slots_.size()) +
                    " != size() " + std::to_string(size()));
  }
  // With as many entries as slots, a strictly ascending lookup whose
  // every entry points at its own node's slot is a bijection.
  for (std::size_t k = 0; k < index_.size(); ++k) {
    const Entry& e = index_[k];
    if (k > 0 && index_[k - 1].node >= e.node) {
      grid_audit_fail("lookup is not strictly ascending at node #" +
                      std::to_string(e.node));
    }
    if (e.slot >= slots_.size() || slots_[e.slot].node.value != e.node) {
      grid_audit_fail("lookup entry for node #" + std::to_string(e.node) +
                      " does not point at its slot");
    }
  }
  std::size_t moving_seen = 0;
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    const Slot& slot = slots_[i];
    const std::string who = "node #" + std::to_string(slot.node.value);
    if (slot.model == nullptr) grid_audit_fail(who + " slot has no model");
    const Vec2 truth = slot.model->position_at(t);
    if (slot.cached.x != truth.x || slot.cached.y != truth.y) {
      grid_audit_fail(who +
                      " cached position is stale at the refreshed time");
    }
    if (key_of(slot.cached) != slot.cell) {
      grid_audit_fail(who + " cell key does not match its cached position");
    }
    const auto bucket_it = buckets_.find(slot.cell);
    if (bucket_it == buckets_.end()) {
      grid_audit_fail(who + " cell has no bucket");
    }
    const auto& bucket = bucket_it->second;
    if (std::count(bucket.begin(), bucket.end(),
                   static_cast<std::uint32_t>(i)) != 1) {
      grid_audit_fail(who + " is not binned exactly once in its bucket");
    }
    const bool moving =
        std::find(moving_.begin(), moving_.end(),
                  static_cast<std::uint32_t>(i)) != moving_.end();
    if (moving == slot.is_static) {
      grid_audit_fail(who + " static flag disagrees with the moving list");
    }
    if (moving) ++moving_seen;
  }
  if (moving_seen != moving_.size()) {
    grid_audit_fail("moving list holds nodes that are not active");
  }
  // Order-insensitive total: a node binned into a *wrong* bucket shows
  // up here as an excess entry even though its own-bucket check passed.
  std::size_t binned = 0;
  // Audit-only commutative sum — the result is independent of bucket
  // iteration order.
  for (const auto& [cell, bucket] : buckets_) binned += bucket.size();
  if (binned != size()) {
    grid_audit_fail("bucket membership total " + std::to_string(binned) +
                    " != active node count " + std::to_string(size()));
  }
}

}  // namespace d2dhb::mobility

// Node placement and movement.
//
// The paper's framework must cope with "the inherent mobility of
// smartphones" — D2D links break when peers drift past the radio range.
// These models drive the distance inputs of the D2D substrate: static
// placement for the controlled experiments (Figs. 8-13, 15), linear
// walk-away for disconnect tests, random-waypoint and clustered crowds
// for the high-density scenarios Section II-D motivates.
#pragma once

#include <memory>
#include <vector>

#include "common/id.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"

namespace d2dhb::mobility {

struct Vec2 {
  double x{0.0};
  double y{0.0};

  constexpr Vec2 operator+(Vec2 o) const { return {x + o.x, y + o.y}; }
  constexpr Vec2 operator-(Vec2 o) const { return {x - o.x, y - o.y}; }
  constexpr Vec2 operator*(double k) const { return {x * k, y * k}; }
  constexpr bool operator==(const Vec2&) const = default;
};

double length(Vec2 v);
Meters distance(Vec2 a, Vec2 b);

/// A node's trajectory through simulated time.
class MobilityModel {
 public:
  virtual ~MobilityModel() = default;
  virtual Vec2 position_at(TimePoint t) const = 0;
  /// True when position_at is time-invariant. The D2D discovery index
  /// bins static radios once in a PointGrid and reads the moving ones'
  /// positions at each scan; a model may only report true if its
  /// position never changes.
  virtual bool is_static() const { return false; }
};

/// Fixed position — the paper's bench-top experiments (devices at a set
/// distance on a desk).
class StaticMobility final : public MobilityModel {
 public:
  explicit StaticMobility(Vec2 position) : position_(position) {}
  Vec2 position_at(TimePoint) const override { return position_; }
  bool is_static() const override { return true; }

 private:
  Vec2 position_;
};

/// Constant-velocity motion from a start point; used to walk a UE out of
/// D2D range deterministically.
class LinearMobility final : public MobilityModel {
 public:
  /// `velocity` is in meters per second.
  LinearMobility(Vec2 start, Vec2 velocity)
      : start_(start), velocity_(velocity) {}
  Vec2 position_at(TimePoint t) const override {
    return start_ + velocity_ * to_seconds(t);
  }

 private:
  Vec2 start_;
  Vec2 velocity_;
};

/// Classic random-waypoint over a rectangular area. Leg k >= 1 walks
/// from leg k-1's destination to a uniform point of the area at a
/// uniform speed, then pauses; its destination x and y, speed and pause
/// are KeyedDraw{key, node, k, field} with field 0-3, so a trajectory
/// is a pure function of (key, node, start) and queries may arrive in
/// any order. The model keeps only the leg of its last query; a query
/// before that leg replays from the start, so memory stays flat in
/// simulated time. That one-leg cache is not safe to query from two
/// threads: a phone's model is read only on its home strip.
class RandomWaypoint final : public MobilityModel {
 public:
  struct Params {
    Vec2 area_min{0.0, 0.0};
    Vec2 area_max{100.0, 100.0};
    double min_speed_mps{0.5};
    double max_speed_mps{1.5};
    Duration max_pause{seconds(30)};
  };

  RandomWaypoint(Params params, Vec2 start, std::uint64_t key, NodeId node);
  Vec2 position_at(TimePoint t) const override;

 private:
  struct Leg {
    std::uint64_t index{0};
    TimePoint start_time;
    TimePoint arrive_time;
    TimePoint end_time;  ///< includes the pause at the destination
    Vec2 from;
    Vec2 to;
  };

  /// Leg 0: standing at the start, zero long.
  Leg first_leg() const;
  Leg next_leg(const Leg& prev) const;
  /// Draw `field` of leg `index`, uniform in [lo, hi).
  double draw(std::uint64_t index, std::uint64_t field, double lo,
              double hi) const;

  Params params_;
  std::uint64_t key_;
  NodeId node_;
  Vec2 start_;
  mutable Leg leg_;
};

/// Follows another trajectory at a fixed offset — members of a group
/// (a family walking together) share one leader path.
class OffsetMobility final : public MobilityModel {
 public:
  OffsetMobility(const MobilityModel& leader, Vec2 offset)
      : leader_(leader), offset_(offset) {}
  Vec2 position_at(TimePoint t) const override {
    return leader_.position_at(t) + offset_;
  }
  bool is_static() const override { return leader_.is_static(); }

 private:
  const MobilityModel& leader_;
  Vec2 offset_;
};

/// Stationary until `depart_at`, then walks straight toward `target` at
/// `speed_mps` and stays there — the "stadium exodus" motion where a
/// whole crowd leaves at once.
class DepartureMobility final : public MobilityModel {
 public:
  DepartureMobility(Vec2 start, Vec2 target, TimePoint depart_at,
                    double speed_mps);
  Vec2 position_at(TimePoint t) const override;
  TimePoint arrival_time() const { return arrive_at_; }

 private:
  Vec2 start_;
  Vec2 target_;
  TimePoint depart_at_;
  TimePoint arrive_at_;
  double speed_mps_;
};

/// Generates clustered positions for a crowd: `clusters` hotspot centers
/// uniformly in the area, nodes normally scattered around a random
/// hotspot. Models the "high-density crowd" regions where signaling
/// storms occur (Section II-D).
std::vector<Vec2> clustered_crowd(std::size_t nodes, std::size_t clusters,
                                  Vec2 area_min, Vec2 area_max,
                                  double cluster_stddev_m, Rng& rng);

}  // namespace d2dhb::mobility

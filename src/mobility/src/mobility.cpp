#include "mobility/mobility.hpp"

#include <algorithm>
#include <cmath>

namespace d2dhb::mobility {

double length(Vec2 v) { return std::hypot(v.x, v.y); }

Meters distance(Vec2 a, Vec2 b) { return Meters{length(a - b)}; }

RandomWaypoint::RandomWaypoint(Params params, Vec2 start, std::uint64_t key,
                               NodeId node)
    : params_(params),
      key_(key),
      node_(node),
      start_(start),
      leg_(first_leg()) {}

RandomWaypoint::Leg RandomWaypoint::first_leg() const {
  return Leg{0, TimePoint{}, TimePoint{}, TimePoint{}, start_, start_};
}

double RandomWaypoint::draw(std::uint64_t index, std::uint64_t field,
                            double lo, double hi) const {
  return lo + (hi - lo) * KeyedDraw{key_, node_.value, index, field}.uniform();
}

RandomWaypoint::Leg RandomWaypoint::next_leg(const Leg& prev) const {
  Leg leg;
  leg.index = prev.index + 1;
  leg.start_time = prev.end_time;
  leg.from = prev.to;
  leg.to = Vec2{draw(leg.index, 0, params_.area_min.x, params_.area_max.x),
                draw(leg.index, 1, params_.area_min.y, params_.area_max.y)};
  const double speed =
      draw(leg.index, 2, params_.min_speed_mps, params_.max_speed_mps);
  const double travel_s = length(leg.to - leg.from) / std::max(speed, 1e-9);
  leg.arrive_time = leg.start_time + seconds(travel_s);
  const double pause_s = draw(leg.index, 3, 0.0, to_seconds(params_.max_pause));
  leg.end_time = leg.arrive_time + seconds(pause_s);
  return leg;
}

Vec2 RandomWaypoint::position_at(TimePoint t) const {
  // t's leg is the first whose end_time >= t. Every leg before the
  // cached one ends by its start, so only t <= that start can fall on
  // an earlier leg; then walk again from leg 0.
  if (leg_.index > 0 && t <= leg_.start_time) leg_ = first_leg();
  while (leg_.end_time < t) leg_ = next_leg(leg_);
  const Leg& leg = leg_;
  if (t >= leg.arrive_time) return leg.to;
  const double total_s = to_seconds(leg.arrive_time - leg.start_time);
  if (total_s <= 0.0) return leg.to;
  const double frac = to_seconds(t - leg.start_time) / total_s;
  return leg.from + (leg.to - leg.from) * frac;
}

DepartureMobility::DepartureMobility(Vec2 start, Vec2 target,
                                     TimePoint depart_at, double speed_mps)
    : start_(start),
      target_(target),
      depart_at_(depart_at),
      speed_mps_(speed_mps) {
  const double travel_s =
      length(target - start) / std::max(speed_mps, 1e-9);
  arrive_at_ = depart_at + seconds(travel_s);
}

Vec2 DepartureMobility::position_at(TimePoint t) const {
  if (t <= depart_at_) return start_;
  if (t >= arrive_at_) return target_;
  const double frac = to_seconds(t - depart_at_) /
                      to_seconds(arrive_at_ - depart_at_);
  return start_ + (target_ - start_) * frac;
}

std::vector<Vec2> clustered_crowd(std::size_t nodes, std::size_t clusters,
                                  Vec2 area_min, Vec2 area_max,
                                  double cluster_stddev_m, Rng& rng) {
  std::vector<Vec2> centers;
  centers.reserve(std::max<std::size_t>(clusters, 1));
  for (std::size_t i = 0; i < std::max<std::size_t>(clusters, 1); ++i) {
    centers.push_back(Vec2{rng.uniform(area_min.x, area_max.x),
                           rng.uniform(area_min.y, area_max.y)});
  }
  std::vector<Vec2> positions;
  positions.reserve(nodes);
  for (std::size_t i = 0; i < nodes; ++i) {
    const Vec2 c = centers[rng.uniform_int(0, centers.size() - 1)];
    Vec2 p{rng.normal(c.x, cluster_stddev_m), rng.normal(c.y, cluster_stddev_m)};
    p.x = std::clamp(p.x, area_min.x, area_max.x);
    p.y = std::clamp(p.y, area_min.y, area_max.y);
    positions.push_back(p);
  }
  return positions;
}

}  // namespace d2dhb::mobility

#include "net/channel.hpp"

#include <utility>

namespace d2dhb::net {

Channel::Channel(sim::Simulator& sim, Params params, Rng rng)
    : sim_(sim), params_(params) {
  // One lane per kernel; the last lane keeps the channel's original rng
  // untouched, so a 1-shard world draws exactly the classic stream.
  const std::size_t shards = sim_.shard_count();
  lanes_.reserve(shards);
  for (std::size_t s = 0; s + 1 < shards; ++s) {
    lanes_.push_back(Lane{rng.fork()});
  }
  lanes_.push_back(Lane{std::move(rng)});
}

bool Channel::send(UplinkBundle bundle) {
  Lane& lane = lanes_[sim_.current_shard()];
  ++lane.sent;
  if (lane.rng.chance(params_.loss_probability)) {
    ++lane.dropped;
    return false;
  }
  sim_.schedule_after(params_.latency,
                      [this, &lane, bundle = std::move(bundle)] {
                        ++lane.delivered;
                        if (receiver_) receiver_(bundle);
                      });
  return true;
}

std::uint64_t Channel::sent() const {
  std::uint64_t total = 0;
  for (const Lane& lane : lanes_) total += lane.sent;
  return total;
}

std::uint64_t Channel::delivered() const {
  std::uint64_t total = 0;
  for (const Lane& lane : lanes_) total += lane.delivered;
  return total;
}

std::uint64_t Channel::dropped() const {
  std::uint64_t total = 0;
  for (const Lane& lane : lanes_) total += lane.dropped;
  return total;
}

}  // namespace d2dhb::net

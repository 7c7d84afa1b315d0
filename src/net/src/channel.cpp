#include "net/channel.hpp"

#include <utility>

#include "common/rng.hpp"

namespace d2dhb::net {

Channel::Channel(sim::Simulator& sim, Params params, std::uint64_t key)
    : sim_(sim), params_(params), key_(key) {}

bool Channel::send(UplinkBundle bundle) {
  sent_.fetch_add(1, std::memory_order_relaxed);
  if (params_.loss_probability > 0.0) {
    const std::uint64_t first =
        bundle.messages.empty() ? 0 : bundle.messages.front().id.value;
    const KeyedDraw loss{key_, bundle.sender.value,
                         static_cast<std::uint64_t>(
                             sim_.now().time_since_epoch().count()),
                         first};
    if (loss.uniform() < params_.loss_probability) {
      dropped_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
  }
  constexpr Duration kLatency = milliseconds(50);
  sim_.schedule_after(kLatency, [this, bundle = std::move(bundle)] {
    delivered_.fetch_add(1, std::memory_order_relaxed);
    if (receiver_) receiver_(bundle);
  });
  return true;
}

}  // namespace d2dhb::net

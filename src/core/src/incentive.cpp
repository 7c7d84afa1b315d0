#include "core/incentive.hpp"

#include <algorithm>

namespace d2dhb::core {

IncentiveLedger::IncentiveLedger() : tariff_() {}
IncentiveLedger::IncentiveLedger(Tariff tariff) : tariff_(tariff) {}

void IncentiveLedger::attach(const sim::Simulator& sim) {
  sim_ = &sim;
  lanes_.assign(sim.shard_count(), Lane{});
}

void IncentiveLedger::credit(NodeId relay, std::uint64_t heartbeats) {
  const double credits =
      tariff_.credits_per_heartbeat * static_cast<double>(heartbeats);
  Lane& lane = lanes_[sim_ == nullptr ? 0 : sim_->current_shard()];
  lane.balances[relay] += credits;
  lane.issued += credits;
}

double IncentiveLedger::balance(NodeId relay) const {
  double balance = 0.0;
  for (const Lane& lane : lanes_) {
    const auto it = lane.balances.find(relay);
    if (it != lane.balances.end()) balance += it->second;
  }
  return balance;
}

double IncentiveLedger::redeemable_usd(NodeId relay) const {
  return balance(relay) * tariff_.usd_per_credit;
}

double IncentiveLedger::redeemable_mb(NodeId relay) const {
  return balance(relay) * tariff_.free_mb_per_credit;
}

double IncentiveLedger::total_issued() const {
  // Lane order, not arrival order: the sum is reproducible no matter how
  // the executor interleaved the lanes' credits in real time.
  double total = 0.0;
  for (const Lane& lane : lanes_) total += lane.issued;
  return total;
}

void IncentiveLedger::bind_metrics(metrics::MetricsRegistry& registry) {
  registry.gauge_fn(
      "incentive.credits_issued", {0, -1, "incentive"}, *this,
      [](IncentiveLedger& ledger) { return ledger.total_issued(); });
}

double IncentiveLedger::redeem(NodeId relay, double credits) {
  double redeemed = 0.0;
  for (Lane& lane : lanes_) {
    const auto it = lane.balances.find(relay);
    if (it == lane.balances.end()) continue;
    const double taken = std::min(credits - redeemed, it->second);
    it->second -= taken;
    redeemed += taken;
  }
  return redeemed;
}

}  // namespace d2dhb::core

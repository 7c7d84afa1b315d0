// Incentive ledger — the Karma-Go-style micro-payment scheme of
// Section III-A: the operator credits relays for every forwarded
// heartbeat they deliver, redeemable as free cellular data or money.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "common/id.hpp"
#include "metrics/registry.hpp"
#include "sim/simulator.hpp"

namespace d2dhb::core {

class IncentiveLedger {
 public:
  struct Tariff {
    /// Credits granted per forwarded heartbeat delivered to the BS.
    double credits_per_heartbeat{1.0};
    /// Redemption rates (Karma Go: "$1 in credits or 100 MB of free
    /// data" per referral-sized batch of 100 credits).
    double usd_per_credit{0.01};
    double free_mb_per_credit{1.0};
  };

  IncentiveLedger();
  explicit IncentiveLedger(Tariff tariff);

  /// Binds the ledger to the world's executor: one lane per strip.
  /// Without it the ledger runs with a single lane — correct for any
  /// single-kernel world.
  void attach(const sim::Simulator& sim);

  /// Credits `relay` for delivering `heartbeats` forwarded messages,
  /// in the executing strip's lane. The issued total is summed in lane
  /// order, so the floating-point result is the same for every executor
  /// thread count (and the classic serial sum with one kernel).
  void credit(NodeId relay, std::uint64_t heartbeats);

  double balance(NodeId relay) const;
  double redeemable_usd(NodeId relay) const;
  double redeemable_mb(NodeId relay) const;

  /// Deducts up to `credits`; returns the amount actually redeemed.
  double redeem(NodeId relay, double credits);

  double total_issued() const;
  const Tariff& tariff() const { return tariff_; }

  /// Exposes the ledger through a registry (the owning Scenario binds it
  /// once at setup).
  void bind_metrics(metrics::MetricsRegistry& registry);

 private:
  /// One strip's share: the balances of the relays homed there and
  /// the credits issued while its kernel executes, in that kernel's
  /// event order. Only that strip's kernel writes it.
  struct Lane {
    std::map<NodeId, double> balances;
    double issued{0.0};
  };

  Tariff tariff_;
  const sim::Simulator* sim_{nullptr};
  std::vector<Lane> lanes_ = std::vector<Lane>(1);
};

}  // namespace d2dhb::core

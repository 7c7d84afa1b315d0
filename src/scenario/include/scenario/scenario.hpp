// Experiment assembly: one Scenario owns the simulator, the shared
// Wi-Fi Direct medium, the base station + IM server, the incentive
// ledger, and every phone and agent added to it. Benches, examples, and
// integration tests build their worlds through this class.
#pragma once

#include <memory>
#include <utility>
#include <vector>

#include "common/arena.hpp"
#include "common/id.hpp"
#include "common/rng.hpp"
#include "core/original_agent.hpp"
#include "core/phone.hpp"
#include "core/relay_agent.hpp"
#include "core/ue_agent.hpp"
#include "d2d/medium.hpp"
#include "metrics/registry.hpp"
#include "mobility/spatial_grid.hpp"
#include "net/im_server.hpp"
#include "radio/base_station.hpp"
#include "sim/simulator.hpp"
#include "world/node_table.hpp"
#include "world/shard_plan.hpp"

namespace d2dhb::scenario {

class Scenario {
 public:
  struct Params {
    std::uint64_t seed{42};
    d2d::WifiDirectMedium::Params medium{};
    net::Channel::Params backhaul{};
    /// Base-station sites. Empty = one cell at the origin. Phones attach
    /// to the nearest site at creation time (cell selection; the
    /// simulation does not model handover between cells).
    std::vector<mobility::Vec2> cell_sites{};
    /// Spatial partition of the world across event kernels. The default
    /// (1 shard) is the classic single-kernel run; N > 1 homes each
    /// phone — its timers, uplinks and D2D links — on the kernel owning
    /// its initial position, and D2D never links phones homed to
    /// different strips. The kernels are therefore independent, and
    /// results are byte-identical for any executor thread count.
    world::ShardPlan shard_plan{};
    /// Agent memory layout: pooled (one bump arena per shard strip —
    /// the production layout) or heap (one allocation per object, the
    /// ablation arm of the arena-vs-heap byte-identical gate). Results
    /// are byte-identical either way; only the layout differs.
    Arena::Mode agent_memory{Arena::Mode::pooled};
  };

  Scenario();
  explicit Scenario(Params params);
  ~Scenario();
  Scenario(const Scenario&) = delete;
  Scenario& operator=(const Scenario&) = delete;

  sim::Simulator& sim() { return sim_; }
  const sim::Simulator& sim() const { return sim_; }
  d2d::WifiDirectMedium& medium() { return medium_; }
  const d2d::WifiDirectMedium& medium() const { return medium_; }
  net::ImServer& server() { return server_; }
  const net::ImServer& server() const { return server_; }
  /// The cell a phone attaches to, by index.
  radio::BaseStation& bs(std::size_t cell = 0) { return *cells_.at(cell); }
  const radio::BaseStation& bs(std::size_t cell = 0) const {
    return *cells_.at(cell);
  }
  std::size_t cell_count() const { return cells_.size(); }
  mobility::Vec2 cell_site(std::size_t cell) const {
    return sites_.at(cell);
  }
  /// Which cell serves this phone. Fails loudly (naming the node) for
  /// ids that never went through add_phone.
  std::size_t cell_of(NodeId node) const;
  radio::BaseStation& serving_bs(const core::Phone& phone) {
    return *cells_[cell_of(phone.id())];
  }
  const radio::BaseStation& serving_bs(const core::Phone& phone) const {
    return *cells_[cell_of(phone.id())];
  }
  /// Dense NodeId → phone lookup (nullptr for unknown ids).
  core::Phone* find_phone(NodeId node) const;
  /// Dense NodeId → agent lookups via the NodeTable's agent-slot
  /// column (nullptr for nodes without that role).
  core::RelayAgent* find_relay(NodeId node) const;
  core::UeAgent* find_ue(NodeId node) const;
  core::OriginalAgent* find_original(NodeId node) const;

  /// The world's dense node-state layer (positions, serving cells,
  /// roles, battery levels, D2D slots, home shards).
  world::NodeTable& nodes() { return table_; }
  const world::NodeTable& nodes() const { return table_; }

  /// The world's unified metrics registry (owned by the simulator).
  metrics::MetricsRegistry& metrics() { return sim_.metrics(); }
  const metrics::MetricsRegistry& metrics() const { return sim_.metrics(); }
  /// Deterministic point-in-time view of every registered metric.
  metrics::Snapshot metrics_snapshot() const {
    return sim_.metrics().snapshot();
  }
  /// Control-plane totals summed over every cell.
  std::uint64_t total_l3() const;
  /// Largest per-cell peak L3 rate in any `window` (the storm metric is
  /// per control channel, i.e. per cell).
  std::uint64_t worst_cell_peak(Duration window) const;

  core::IncentiveLedger& ledger() { return ledger_; }
  /// Strip 0's message-id lane — the classic 1, 2, 3, ... generator in
  /// a single-strip world. Agents added through add_relay/add_ue/
  /// add_original draw from their own strip's lane instead, so strips
  /// mint ids concurrently without sharing a counter.
  IdGenerator<MessageId>& message_ids() { return message_lanes_.front(); }
  Rng fork_rng() { return rng_.fork(); }

  /// Adds a phone; the id is assigned automatically (1, 2, 3, ...) and
  /// the phone attaches to the nearest cell site. The phone (and an
  /// owning config.mobility model, if given) is placed in the arena of
  /// the strip owning its initial position.
  core::Phone& add_phone(core::PhoneConfig config);

  /// Constructs a mobility model directly in the arena of the strip
  /// owning `at` — the zero-heap path for streamed city construction
  /// (`pc.mobility_ref = &world.emplace_mobility<...>(pos, ...)`).
  /// `at` must be the model's initial position; it only selects the
  /// strip, the model's own constructor arguments follow.
  template <typename M, typename... Args>
  const M& emplace_mobility(mobility::Vec2 at, Args&&... args) {
    // detlint: allow(arena-escape): sanctioned factory — the borrow is
    // handed to the caller on the strip that owns `at`, same lifetime.
    return arenas_[shard_plan_.shard_for(at)]->create<M>(
        std::forward<Args>(args)...);
  }

  /// The arena owning strip `shard`'s agents (construction hook for
  /// advanced builders; most callers go through add_phone/add_*).
  Arena& strip_arena(std::uint32_t shard) { return *arenas_.at(shard); }
  /// Arena footprint summed over every strip.
  Arena::Stats arena_stats() const;
  Arena::Mode agent_memory() const { return agent_memory_; }

  core::RelayAgent& add_relay(core::Phone& phone,
                              core::RelayAgent::Params params);
  core::UeAgent& add_ue(core::Phone& phone, core::UeAgent::Params params);
  core::OriginalAgent& add_original(core::Phone& phone,
                                    apps::AppProfile app);

  /// Registers an app session at the server with the given tolerance
  /// (commercial servers allow ~3 heartbeat periods). By default the
  /// phone's primary app is registered; pass `app` explicitly for phones
  /// running several.
  void register_session(const core::Phone& phone, Duration tolerance,
                        AppId app = AppId::invalid());

  /// Dense agent stores: row = the NodeTable's agent-slot column value.
  /// The objects themselves live in the strip arenas; these vectors are
  /// the index.
  std::vector<core::Phone*>& phones() { return phones_; }
  std::vector<core::RelayAgent*>& relays() { return relays_; }
  std::vector<core::UeAgent*>& ues() { return ues_; }
  std::vector<core::OriginalAgent*>& originals() { return originals_; }

  void run_for(Duration d) { sim_.run_until(sim_.now() + d); }

 private:
  Rng rng_;
  world::ShardPlan shard_plan_;
  sim::Simulator sim_;
  /// Declared before the medium: the medium (and through it every
  /// radio) indexes into this table for positions and D2D slots.
  world::NodeTable table_;
  d2d::WifiDirectMedium medium_;
  net::ImServer server_;

  std::vector<mobility::Vec2> sites_;
  std::vector<std::unique_ptr<radio::BaseStation>> cells_;
  /// Cell-site world index for nearest-cell attach.
  mobility::PointGrid site_grid_;
  /// NodeId → phone, dense (nullptr marks ids that never went through
  /// add_phone). Core-typed, so it stays here rather than in the
  /// world-layer NodeTable.
  std::vector<core::Phone*> phone_by_id_;
  std::uint64_t table_auditor_token_{0};
  core::IncentiveLedger ledger_;
  IdGenerator<NodeId> node_ids_;
  /// One message-id lane per strip (lane k of V mints 1+k, 1+k+V, ...).
  /// Sized once at construction — agents keep references into it.
  std::vector<IdGenerator<MessageId>> message_lanes_;
  Arena::Mode agent_memory_;
  std::vector<core::Phone*> phones_;
  std::vector<core::RelayAgent*> relays_;
  std::vector<core::UeAgent*> ues_;
  std::vector<core::OriginalAgent*> originals_;
  /// One arena per shard strip, holding that strip's mobility models,
  /// phones, agents, and pooled apps. Declared last: the arenas tear
  /// down FIRST (finalizers in reverse allocation order, so each
  /// strip's agents die before their phones, and phones before their
  /// models) while the sim, medium, and table are still alive — the
  /// same ordering the per-object unique_ptr stores had.
  std::vector<std::unique_ptr<Arena>> arenas_;
};

}  // namespace d2dhb::scenario

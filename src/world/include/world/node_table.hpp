// Dense per-node world state, structure-of-arrays.
//
// Every scenario assigns contiguous NodeIds (1, 2, 3, ...), and before
// this layer each substrate kept its own parallel table indexed by
// them: the Wi-Fi Direct medium had radio+mobility entries, the
// Scenario had serving-cell and phone-pointer vectors, relay selection
// rebuilt candidate lists from scratch. The NodeTable is the single
// dense-state layer those substrates now index into — one column per
// attribute, NodeId value as the row index — so a future million-phone
// world pays one cache-friendly array per attribute instead of N
// scattered maps, and cross-substrate consistency is auditable in one
// place.
//
// Columns: mobility model (position source), serving cell, the D2D
// medium's compact radio slot, and the node's home shard.
#pragma once

#include <cstdint>
#include <vector>

#include "common/id.hpp"
#include "common/units.hpp"
#include "mobility/mobility.hpp"

namespace d2dhb::world {

/// Serving-cell column value for "not attached to any cell".
inline constexpr std::uint32_t kNoCell = UINT32_MAX;
/// D2D-slot column value for "no radio on the medium".
inline constexpr std::uint32_t kNoD2dSlot = UINT32_MAX;

class NodeTable {
 public:
  NodeTable() = default;
  NodeTable(const NodeTable&) = delete;
  NodeTable& operator=(const NodeTable&) = delete;

  /// Registers a node with its position source. Ids must be valid
  /// (non-zero); re-registering an id overwrites its mobility and keeps
  /// the other columns. `mobility` must outlive the table (scenarios
  /// own the models; the table only reads positions).
  void add(NodeId id, const mobility::MobilityModel* mobility);

  bool contains(NodeId id) const {
    return id.value < mobility_.size() && mobility_[id.value] != nullptr;
  }
  /// Number of registered nodes.
  std::size_t size() const { return registered_; }
  /// One past the largest row index (ids are rows; row 0 is unused).
  std::uint64_t id_limit() const { return mobility_.size(); }

  const mobility::MobilityModel& mobility_of(NodeId id) const {
    return *checked(id);
  }
  mobility::Vec2 position_of(NodeId id, TimePoint t) const {
    return checked(id)->position_at(t);
  }

  std::uint32_t cell_of(NodeId id) const { return cell_[check_row(id)]; }
  void set_cell(NodeId id, std::uint32_t cell) { cell_[check_row(id)] = cell; }

  /// Index into the D2D medium's compact radio array (kNoD2dSlot when
  /// the node has no radio attached). Owned by WifiDirectMedium.
  std::uint32_t d2d_slot(NodeId id) const { return d2d_slot_[check_row(id)]; }
  void set_d2d_slot(NodeId id, std::uint32_t slot) {
    d2d_slot_[check_row(id)] = slot;
  }

  /// Home shard of the partitioned executor (0 in a 1-shard world).
  std::uint32_t shard_of(NodeId id) const { return shard_[check_row(id)]; }
  void set_shard(NodeId id, std::uint32_t shard) {
    shard_[check_row(id)] = shard;
  }

  /// Registered ids in ascending order (freshly built; for iteration-
  /// order-sensitive callers like relay selection).
  std::vector<NodeId> ids() const;

  /// Invariant audit (the D2DHB_AUDIT layer): row 0 unused, registered
  /// count matches the mobility column, unregistered rows hold default
  /// column values, and no two nodes share a D2D slot. Throws
  /// std::logic_error naming the offending row.
  void audit() const;

 private:
  const mobility::MobilityModel* checked(NodeId id) const;
  std::size_t check_row(NodeId id) const;

  // One column per attribute, NodeId value as row index. All columns
  // grow together in add(); nullptr mobility marks an unregistered row.
  std::vector<const mobility::MobilityModel*> mobility_;
  std::vector<std::uint32_t> cell_;
  std::vector<std::uint32_t> d2d_slot_;
  std::vector<std::uint32_t> shard_;
  std::size_t registered_{0};
};

}  // namespace d2dhb::world

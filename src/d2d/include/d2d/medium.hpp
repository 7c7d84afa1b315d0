// Shared Wi-Fi Direct medium: the "air" between radios.
//
// Tracks every registered radio, answers range and discovery queries,
// and adds measurement noise to RSSI-derived distance estimates (the
// pre-judgment input of Section III-C).
//
// Node state (position source, D2D slot) lives in the world::NodeTable
// dense-state layer shared with the Scenario and operator selection;
// the medium itself keeps only a compact radio array, with the table's
// d2d_slot column mapping NodeId → array index. Discovery scans go
// through a per-strip discovery index instead of walking every radio —
// the difference between O(population) and O(listening neighbourhood)
// per scan at crowd scale. The index holds exactly the attached radios
// that are listening(): only those can be admitted to a scan (the
// Section III-C detector chooses among relay adverts), so the filter
// lives in the data structure instead of being applied per candidate.
// It has two parts: a mobility::PointGrid of the static listening
// radios, binned once at their fixed positions, and a NodeId-sorted
// list of the moving ones, whose exact positions a scan reads directly
// (relays are static in every crowd and city world, so the list is
// almost always empty). WifiDirectRadio::set_listening reports every
// flag change here, and attach/detach follow the flag. Range-exit
// polls do not use the index: a radio asks in_range for each link. A
// legacy linear-scan path over the whole table is kept behind
// Params::legacy_scan as the full-table reference.
//
// Keyed draws: a scan's miss and noise draws for a peer are a pure
// function (common/rng.hpp KeyedDraw) of the world key, the scanner,
// the peer and the scan time. The medium holds no random stream, so
// what a scanner measures depends neither on the scans before it nor
// on how the world was cut into strips, and both scan paths answer a
// seeded run bit-identically.
//
// Strip confinement: every node is homed to a world strip (its
// NodeTable shard column, fixed when the node is added) and D2D only
// connects nodes homed to the same strip — cross-strip pairs are
// simply out of range. Strips are at least four D2D ranges wide, so
// this only trims pairs straddling a strip boundary
// (scenario::strip_wall_pairs counts them), and it makes the medium
// safe for the parallel executor: a scan or range sweep on strip k
// touches only strip-k radios, strip-k mobility models and strip k's
// discovery index. A group's id is its owner's NodeId, so forming a group
// touches no shared counter either.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/id.hpp"
#include "common/units.hpp"
#include "mobility/mobility.hpp"
#include "mobility/spatial_grid.hpp"
#include "sim/simulator.hpp"
#include "world/node_table.hpp"

namespace d2dhb::d2d {

class WifiDirectRadio;

/// What a relay advertises in its discovery beacon.
struct RelayAdvert {
  bool offers_relay{false};
  std::uint32_t capacity_remaining{0};  ///< Heartbeats it will still accept.
};

/// One entry of a discovery scan result.
struct DiscoveredPeer {
  NodeId node;
  Meters estimated_distance;  ///< RSSI-derived, noisy.
  RelayAdvert advert;
};

class WifiDirectMedium {
 public:
  struct Params {
    Meters range{30.0};            ///< Nominal Wi-Fi Direct reach.
    double rssi_noise_stddev_m{0.3};
    double discovery_miss_probability{0.0};  ///< Per-peer scan miss.
    /// A group owner accepts at most this many clients (Android GOs top
    /// out around 8); further connect attempts are refused.
    std::size_t max_group_clients{8};
    /// World-index cell size in meters; 0 picks the D2D range (one
    /// neighbour-ring then covers every scan). Exposed for the grid
    /// ablation (`d2dhb_sim crowd --grid-cell`).
    double grid_cell_m{0.0};
    /// Ablation: answer scans by walking the whole node table (in
    /// NodeId order) instead of querying the grid.
    bool legacy_scan{false};
  };

  /// `nodes` is the world's shared dense-state table; radios attaching
  /// to the medium register there (attach auto-adds rows for nodes the
  /// scenario has not registered, so standalone radio tests need no
  /// setup beyond passing a table). `key` keys every discovery draw.
  WifiDirectMedium(sim::Simulator& sim, world::NodeTable& nodes,
                   Params params, std::uint64_t key);
  ~WifiDirectMedium();
  WifiDirectMedium(const WifiDirectMedium&) = delete;
  WifiDirectMedium& operator=(const WifiDirectMedium&) = delete;

  /// Radios register on construction and unregister on destruction. A
  /// re-attach (a second radio for the same node) replaces the first:
  /// the node leaves the index at the replaced radio's position and
  /// rejoins it only while the replacing radio listens.
  void attach(WifiDirectRadio& radio);
  void detach(NodeId node);

  /// Invariant audit (the D2DHB_AUDIT layer): checks the discovery
  /// index (PointGrid::audit on each strip's grid, a strictly ascending
  /// moving list, and in both directions that each attached radio is in
  /// one of its home strip's two sets exactly while it listens and that
  /// the sets hold nothing else), NodeTable↔radio-array slot
  /// consistency in both directions, and link-table symmetry — for
  /// every attached radio, each link (peer, group) must be mirrored by
  /// an identical link back from the peer. Registered with the
  /// simulator's auditor list on construction, so audit builds run it
  /// automatically every audit interval.
  void audit() const;

  /// True distance between two registered radios right now. Only
  /// meaningful for same-strip pairs (callers reach it through links,
  /// which never cross strips).
  Meters distance(NodeId a, NodeId b) const;
  /// Range check with strip confinement: nodes not on the medium, and
  /// nodes homed to different strips, are never in range (decided
  /// before touching either node's mobility, so it is safe to ask about
  /// a peer another thread owns).
  bool in_range(NodeId a, NodeId b) const;
  mobility::Vec2 position_of(NodeId node) const;

  /// Peers currently discoverable and in range of `scanner`, with noisy
  /// distance estimates, in ascending NodeId order. Peers may be missed
  /// per the miss probability. A peer's miss and noise draws are keyed
  /// by (key, scanner, peer, now), so a repeated scan repeats them.
  std::vector<DiscoveredPeer> scan_from(NodeId scanner) const;

  WifiDirectRadio* radio(NodeId node) const;
  const Params& params() const { return params_; }
  /// The world key every draw keyed on this medium starts from.
  std::uint64_t key() const { return key_; }
  /// The shared dense node-state layer (home shards, positions, slots).
  world::NodeTable& nodes() { return nodes_; }
  const world::NodeTable& nodes() const { return nodes_; }
  /// Size of a strip's discovery index (exposed for diagnostics): the
  /// attached listening radios homed to that strip. Strip 0 by default
  /// — the whole world when there is a single strip.
  std::size_t indexed_count(std::size_t strip = 0) const {
    return strips_[strip].still.size() + strips_[strip].moving.size();
  }
  /// True if `node`'s attached radio is in its strip's discovery index:
  /// binned at its position if static, listed if moving.
  bool indexed(NodeId node) const;

  /// Test backdoor (corrupts internals for the audit tests).
  struct Internal;

 private:
  friend class WifiDirectRadio;
  friend struct Internal;

  /// Called by `radio`'s set_listening after its flag changed. A radio
  /// that a re-attach has replaced no longer speaks for its node and
  /// leaves the index alone.
  void listening_changed(const WifiDirectRadio& radio);
  /// Adds `radio`'s node to (`in`) or takes it out of its strip's
  /// discovery index, in the set the radio's own model picks.
  void set_indexed(const WifiDirectRadio& radio, bool in);
  std::uint32_t strip_of(NodeId node) const { return nodes_.shard_of(node); }

  sim::Simulator& sim_;
  world::NodeTable& nodes_;
  Params params_;
  std::uint64_t key_;
  /// Compact array of attached radios; the NodeTable's d2d_slot column
  /// maps NodeId → index here. Detach swap-removes, so the array stays
  /// dense no matter the attach/detach order.
  std::vector<WifiDirectRadio*> radios_;
  /// One strip's discovery index: the listening radios homed there.
  /// Scans on strip k read strips_[k] alone, and only strip k's kernel
  /// (or the world build) changes a strip-k radio's flag. Cache-line
  /// aligned because each strip's kernel writes its `hits` on every
  /// scan while its neighbours read their own grids.
  struct alignas(64) StripIndex {
    explicit StripIndex(Meters cell) : still(cell) {}
    /// Static listening radios, index = NodeId value.
    mobility::PointGrid still;
    /// Moving listening radios, ascending.
    std::vector<NodeId> moving;
    /// Scan scratch (no per-scan allocation, no buffer shared across
    /// threads).
    mutable std::vector<mobility::PointGrid::Hit> hits;
  };
  std::vector<StripIndex> strips_;
  std::uint64_t auditor_token_{0};
};

}  // namespace d2dhb::d2d

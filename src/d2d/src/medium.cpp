#include "d2d/medium.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "common/rng.hpp"
#include "d2d/wifi_direct.hpp"

namespace d2dhb::d2d {

namespace {
Meters grid_cell(const WifiDirectMedium::Params& params) {
  return params.grid_cell_m > 0.0 ? Meters{params.grid_cell_m}
                                  : params.range;
}
}  // namespace

WifiDirectMedium::WifiDirectMedium(sim::Simulator& sim,
                                   world::NodeTable& nodes, Params params,
                                   std::uint64_t key)
    : sim_(sim), nodes_(nodes), params_(params), key_(key) {
  const std::size_t strips = sim_.shard_count();
  strips_.reserve(strips);
  for (std::size_t s = 0; s < strips; ++s) {
    strips_.emplace_back(grid_cell(params_));
  }
  auditor_token_ = sim_.add_auditor([this] { audit(); });
}

WifiDirectMedium::~WifiDirectMedium() { sim_.remove_auditor(auditor_token_); }

void WifiDirectMedium::audit() const {
  for (std::size_t strip = 0; strip < strips_.size(); ++strip) {
    const StripIndex& index = strips_[strip];
    index.still.audit();
    if (std::adjacent_find(index.moving.begin(), index.moving.end(),
                           [](NodeId a, NodeId b) { return !(a < b); }) !=
        index.moving.end()) {
      throw sim::AuditError("WifiDirectMedium audit: strip " +
                            std::to_string(strip) +
                            "'s moving list is not strictly ascending");
    }
  }
  // Slot consistency: every radio-array entry points back at its slot
  // through the table, and every table slot lands inside the array.
  for (std::size_t slot = 0; slot < radios_.size(); ++slot) {
    const WifiDirectRadio* radio = radios_[slot];
    if (radio == nullptr) {
      throw sim::AuditError("WifiDirectMedium audit: radio slot " +
                            std::to_string(slot) + " is null");
    }
    if (!nodes_.contains(radio->owner()) ||
        nodes_.d2d_slot(radio->owner()) != slot) {
      throw sim::AuditError(
          "WifiDirectMedium audit: node #" +
          std::to_string(radio->owner().value) +
          "'s d2d_slot column does not point back at radio slot " +
          std::to_string(slot));
    }
  }
  for (const NodeId node : nodes_.ids()) {
    const std::uint32_t slot = nodes_.d2d_slot(node);
    if (slot != world::kNoD2dSlot && slot >= radios_.size()) {
      throw sim::AuditError("WifiDirectMedium audit: node #" +
                            std::to_string(node.value) +
                            " references out-of-range radio slot " +
                            std::to_string(slot));
    }
  }
  // Discovery index, both directions: every attached radio is in its
  // home strip's index (binned at its position if static, listed if
  // moving) exactly while it listens, and no strip's index holds more
  // entries than the strip has listening radios — so neither set holds
  // a detached, non-listening, foreign or duplicate node.
  std::vector<std::size_t> listening(strips_.size(), 0);
  for (const WifiDirectRadio* radio : radios_) {
    const NodeId node = radio->owner();
    const std::uint32_t strip = strip_of(node);
    if (radio->listening() != indexed(node)) {
      throw sim::AuditError(
          "WifiDirectMedium audit: node #" + std::to_string(node.value) +
          (radio->listening() ? " listens but is missing from"
                              : " does not listen but is binned in") +
          " strip " + std::to_string(strip) + "'s discovery index");
    }
    if (radio->listening()) ++listening[strip];
  }
  for (std::size_t strip = 0; strip < strips_.size(); ++strip) {
    if (indexed_count(strip) != listening[strip]) {
      throw sim::AuditError(
          "WifiDirectMedium audit: strip " + std::to_string(strip) +
          "'s discovery index holds " +
          std::to_string(indexed_count(strip)) + " nodes but only " +
          std::to_string(listening[strip]) +
          " attached listening radios are homed there");
    }
  }
  // Link symmetry over the attached radios.
  for (const WifiDirectRadio* radio : radios_) {
    const std::uint64_t id = radio->owner().value;
    for (const auto& link : radio->links_) {
      const WifiDirectRadio* peer = this->radio(link.peer);
      if (peer == nullptr) {
        throw sim::AuditError("WifiDirectMedium audit: node #" +
                              std::to_string(id) + " links to detached #" +
                              std::to_string(link.peer.value));
      }
      const auto back = std::find_if(
          peer->links_.begin(), peer->links_.end(),
          [id](const auto& l) { return l.peer.value == id; });
      if (back == peer->links_.end() || back->group != link.group) {
        throw sim::AuditError(
            "WifiDirectMedium audit: link #" + std::to_string(id) +
            " -> #" + std::to_string(link.peer.value) +
            " is not mirrored with the same group id");
      }
    }
  }
}

void WifiDirectMedium::attach(WifiDirectRadio& radio) {
  const NodeId node = radio.owner();
  if (!node.valid()) {
    throw std::invalid_argument("WifiDirectMedium: invalid node id");
  }
  // A re-attach takes the replaced radio's entry out first, at the
  // position and in the set its own model put it.
  if (const WifiDirectRadio* replaced = this->radio(node);
      replaced != nullptr && replaced->listening()) {
    set_indexed(*replaced, false);
  }
  // Adds the row for scenario-less tests; for scenario phones the row
  // already exists (same mobility model) and add() just re-points it.
  nodes_.add(node, &radio.mobility());
  const std::uint32_t slot = nodes_.d2d_slot(node);
  if (slot != world::kNoD2dSlot) {
    radios_[slot] = &radio;  // re-attach replaces the radio in place
  } else {
    nodes_.set_d2d_slot(node, static_cast<std::uint32_t>(radios_.size()));
    radios_.push_back(&radio);
  }
  if (radio.listening()) set_indexed(radio, true);
}

void WifiDirectMedium::listening_changed(const WifiDirectRadio& radio) {
  if (this->radio(radio.owner()) != &radio) return;
  set_indexed(radio, radio.listening());
}

// A static radio's position is the same at any time, so adding and
// removing it read it at the current one.
void WifiDirectMedium::set_indexed(const WifiDirectRadio& radio, bool in) {
  const NodeId node = radio.owner();
  StripIndex& index = strips_[strip_of(node)];
  const mobility::MobilityModel& model = radio.mobility();
  if (model.is_static()) {
    const mobility::Vec2 at = model.position_at(sim_.now());
    if (in) {
      index.still.insert(node.value, at);
    } else {
      index.still.remove(node.value, at);
    }
    return;
  }
  const auto it =
      std::lower_bound(index.moving.begin(), index.moving.end(), node);
  if (in) {
    index.moving.insert(it, node);
  } else if (it != index.moving.end() && *it == node) {
    index.moving.erase(it);
  }
}

bool WifiDirectMedium::indexed(NodeId node) const {
  const WifiDirectRadio* attached = radio(node);
  if (attached == nullptr) return false;
  const StripIndex& index = strips_[strip_of(node)];
  const mobility::MobilityModel& model = attached->mobility();
  if (model.is_static()) {
    return index.still.contains(node.value, model.position_at(sim_.now()));
  }
  return std::binary_search(index.moving.begin(), index.moving.end(), node);
}

void WifiDirectMedium::detach(NodeId node) {
  if (!nodes_.contains(node)) return;
  const std::uint32_t slot = nodes_.d2d_slot(node);
  if (slot == world::kNoD2dSlot) return;
  if (radios_[slot]->listening()) set_indexed(*radios_[slot], false);
  const std::size_t last = radios_.size() - 1;
  if (slot != last) {
    radios_[slot] = radios_[last];
    nodes_.set_d2d_slot(radios_[slot]->owner(),
                        static_cast<std::uint32_t>(slot));
  }
  radios_.pop_back();
  nodes_.set_d2d_slot(node, world::kNoD2dSlot);
}

mobility::Vec2 WifiDirectMedium::position_of(NodeId node) const {
  if (radio(node) == nullptr) {
    throw std::out_of_range("WifiDirectMedium: unknown node #" +
                            std::to_string(node.value));
  }
  return nodes_.position_of(node, sim_.now());
}

Meters WifiDirectMedium::distance(NodeId a, NodeId b) const {
  return mobility::distance(position_of(a), position_of(b));
}

bool WifiDirectMedium::in_range(NodeId a, NodeId b) const {
  // Attachment and strip checks read no positions, so they are safe for
  // any pair; the strip test must come before the distance read — a
  // cross-strip peer's mobility belongs to another kernel's thread.
  if (radio(a) == nullptr || radio(b) == nullptr ||
      strip_of(a) != strip_of(b)) {
    return false;
  }
  return distance(a, b).value <= params_.range.value;
}

std::vector<DiscoveredPeer> WifiDirectMedium::scan_from(
    NodeId scanner) const {
  std::vector<DiscoveredPeer> found;
  if (radio(scanner) == nullptr) return found;
  const std::uint32_t strip = strip_of(scanner);
  const TimePoint now = sim_.now();
  const mobility::Vec2 origin = nodes_.position_of(scanner, now);

  // Both paths visit peers in ascending NodeId order with identical
  // distance arithmetic and keyed draws, so a seeded run is
  // bit-identical whichever one answers (test_grid_equivalence). The
  // grid path only sees listening peers; the legacy path sees every
  // radio, and admit() drops the others. Both stay on the scanner's
  // strip: the grid by construction, the legacy path by a home-strip
  // filter applied before any position is read.
  auto admit = [&](NodeId node, Meters d) {
    const WifiDirectRadio* peer_radio = radios_[nodes_.d2d_slot(node)];
    if (!peer_radio->listening()) return;
    const KeyedDraw draw{key_, scanner.value, node.value,
                         static_cast<std::uint64_t>(
                             now.time_since_epoch().count())};
    if (params_.discovery_miss_probability > 0.0 &&
        draw.uniform() < params_.discovery_miss_probability) {
      return;
    }
    const double noise = params_.rssi_noise_stddev_m * draw.normal();
    found.push_back(DiscoveredPeer{
        node, Meters{std::max(0.0, d.value + noise)}, peer_radio->advert()});
  };

  if (params_.legacy_scan) {
    for (std::uint64_t id = 1; id < nodes_.id_limit(); ++id) {
      const NodeId node{id};
      if (id == scanner.value || !nodes_.contains(node) ||
          nodes_.d2d_slot(node) == world::kNoD2dSlot ||
          strip_of(node) != strip) {
        continue;
      }
      const Meters d =
          mobility::distance(origin, nodes_.position_of(node, now));
      if (d.value > params_.range.value) continue;
      admit(node, d);
    }
    return found;
  }

  // The grid's hits and the in-range moving radios are disjoint and
  // each ascending; merging them keeps the admit order by NodeId.
  const StripIndex& index = strips_[strip];
  index.still.query_radius(origin, params_.range, index.hits);
  auto hit = index.hits.begin();
  auto admit_hits_below = [&](std::uint64_t bound) {
    for (; hit != index.hits.end() && hit->index < bound; ++hit) {
      if (hit->index != scanner.value) {
        admit(NodeId{hit->index}, hit->distance);
      }
    }
  };
  for (const NodeId node : index.moving) {
    if (node == scanner) continue;
    const Meters d = mobility::distance(origin, nodes_.position_of(node, now));
    if (d.value > params_.range.value) continue;
    admit_hits_below(node.value);
    admit(node, d);
  }
  admit_hits_below(UINT64_MAX);
  return found;
}

WifiDirectRadio* WifiDirectMedium::radio(NodeId node) const {
  if (!nodes_.contains(node)) return nullptr;
  const std::uint32_t slot = nodes_.d2d_slot(node);
  return slot == world::kNoD2dSlot ? nullptr : radios_[slot];
}

}  // namespace d2dhb::d2d

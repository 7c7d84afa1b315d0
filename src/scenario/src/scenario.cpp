#include "scenario/scenario.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

namespace d2dhb::scenario {

Scenario::Scenario() : Scenario(Params{}) {}

namespace {

/// Cell size for the site index: the mean site spacing is a good
/// default; any positive value is correct (only query cost varies).
Meters site_grid_cell(const std::vector<mobility::Vec2>& sites) {
  if (sites.size() < 2) return Meters{100.0};
  double min_x = sites[0].x, max_x = sites[0].x;
  double min_y = sites[0].y, max_y = sites[0].y;
  for (const auto& s : sites) {
    min_x = std::min(min_x, s.x);
    max_x = std::max(max_x, s.x);
    min_y = std::min(min_y, s.y);
    max_y = std::max(max_y, s.y);
  }
  const double span = std::max(max_x - min_x, max_y - min_y);
  return Meters{std::max(1.0, span / std::sqrt(
                                    static_cast<double>(sites.size())))};
}

}  // namespace

Scenario::Scenario(Params params)
    : rng_(params.seed),
      shard_plan_(params.shard_plan),
      sim_(shard_plan_.shards),
      medium_(sim_, table_, params.medium, rng_.next_u64()),
      server_(sim_),
      sites_(params.cell_sites.empty()
                 ? std::vector<mobility::Vec2>{{0.0, 0.0}}
                 : params.cell_sites),
      site_grid_(site_grid_cell(sites_)),
      agent_memory_(params.agent_memory) {
  cells_.reserve(sites_.size());
  for (std::size_t i = 0; i < sites_.size(); ++i) {
    cells_.push_back(std::make_unique<radio::BaseStation>(
        sim_, server_, params.backhaul, rng_.next_u64(), i));
    site_grid_.insert(i, sites_[i]);
  }
  ledger_.attach(sim_);
  ledger_.bind_metrics(sim_.metrics());
  arenas_.reserve(shard_plan_.shards);
  for (std::size_t s = 0; s < shard_plan_.shards; ++s) {
    arenas_.push_back(std::make_unique<Arena>(agent_memory_));
  }
  table_auditor_token_ = sim_.add_auditor([this] { table_.audit(); });
}

Scenario::~Scenario() { sim_.remove_auditor(table_auditor_token_); }

std::size_t Scenario::cell_of(NodeId node) const {
  if (!table_.contains(node) || table_.cell_of(node) == world::kNoCell) {
    throw std::out_of_range(
        "Scenario::cell_of: node #" + std::to_string(node.value) +
        " is not a phone of this scenario (phones attach in add_phone)");
  }
  return table_.cell_of(node);
}

Arena::Stats Scenario::arena_stats() const {
  Arena::Stats total;
  for (const auto& arena : arenas_) {
    const Arena::Stats& s = arena->stats();
    total.bytes_allocated += s.bytes_allocated;
    total.bytes_reserved += s.bytes_reserved;
    total.blocks += s.blocks;
    total.objects += s.objects;
  }
  return total;
}

std::uint64_t Scenario::total_l3() const {
  std::uint64_t total = 0;
  for (const auto& cell : cells_) total += cell->signaling().total();
  return total;
}

std::uint64_t Scenario::worst_cell_peak(Duration window) const {
  std::uint64_t worst = 0;
  for (const auto& cell : cells_) {
    worst = std::max(worst, cell->signaling().peak_rate(window));
  }
  return worst;
}

core::Phone& Scenario::add_phone(core::PhoneConfig config) {
  const mobility::MobilityModel* model = config.mobility_ref;
  if (model == nullptr && !config.mobility) {
    throw std::invalid_argument("Scenario::add_phone: mobility required");
  }
  const NodeId id = node_ids_.next();
  // Cell selection: nearest site to the phone's initial position,
  // answered by the site world index (ties go to the lowest site
  // index, the same rule as a first-strictly-closer linear scan).
  const mobility::Vec2 at =
      (model != nullptr ? model : config.mobility.get())
          ->position_at(sim_.now());
  const std::size_t best = site_grid_.nearest(at);
  const std::uint32_t shard = shard_plan_.shard_for(at);
  Arena& arena = *arenas_[shard];
  if (model == nullptr) {
    // The config owned the model; its lifetime moves into the strip
    // arena (adopted BEFORE the phone, so reverse-order teardown
    // destroys the phone first, the model after).
    model = &arena.adopt(std::move(config.mobility));
  }
  config.mobility_ref = model;
  // Register the node's world state BEFORE the phone exists: the radio
  // attaches to the medium during Phone construction and must find its
  // row.
  table_.add(id, model);
  table_.set_cell(id, static_cast<std::uint32_t>(best));
  table_.set_shard(id, shard);
  core::Phone* phone = nullptr;
  {
    // Home the phone's timers (RRC, link monitor, agent beats) on its
    // shard's kernel — and its state in that shard's arena.
    sim::ShardGuard guard(sim_, shard);
    phone = &arena.create<core::Phone>(sim_, id, std::move(config), medium_,
                                       cells_[best]->signaling().strip(shard));
  }
  phones_.push_back(phone);
  return *phone;
}

core::RelayAgent& Scenario::add_relay(core::Phone& phone,
                                      core::RelayAgent::Params params) {
  const std::uint32_t shard = table_.shard_of(phone.id());
  Arena& arena = *arenas_[shard];
  sim::ShardGuard guard(sim_, shard);
  relays_.push_back(&arena.create<core::RelayAgent>(
      sim_, phone, std::move(params), serving_bs(phone), &ledger_, &arena));
  return *relays_.back();
}

core::UeAgent& Scenario::add_ue(core::Phone& phone,
                                core::UeAgent::Params params) {
  const std::uint32_t shard = table_.shard_of(phone.id());
  Arena& arena = *arenas_[shard];
  sim::ShardGuard guard(sim_, shard);
  ues_.push_back(&arena.create<core::UeAgent>(
      sim_, phone, std::move(params), serving_bs(phone), &arena));
  return *ues_.back();
}

core::OriginalAgent& Scenario::add_original(core::Phone& phone,
                                            apps::AppProfile app) {
  const std::uint32_t shard = table_.shard_of(phone.id());
  Arena& arena = *arenas_[shard];
  sim::ShardGuard guard(sim_, shard);
  originals_.push_back(&arena.create<core::OriginalAgent>(
      sim_, phone, std::move(app), serving_bs(phone), &arena));
  return *originals_.back();
}

void Scenario::register_session(const core::Phone& phone, Duration tolerance,
                                AppId app) {
  if (!app.valid()) app = apps::app_id_for(phone.id(), 0);
  // Only the phone's home strip delivers its heartbeats.
  sim::ShardGuard guard(sim_, table_.shard_of(phone.id()));
  server_.register_client(phone.id(), app, tolerance);
}

std::uint64_t strip_wall_pairs(const Scenario& world) {
  const world::NodeTable& nodes = world.nodes();
  const Meters range = world.medium().params().range;
  std::vector<NodeId> relays;  // the listening relays, as `grid` indexes
  mobility::PointGrid grid{range};
  for (core::RelayAgent* relay : world.relays()) {
    const NodeId id = relay->phone().id();
    if (!relay->phone().wifi().listening()) continue;
    grid.insert(relays.size(), nodes.position_of(id, TimePoint{}));
    relays.push_back(id);
  }
  std::uint64_t pairs = 0;
  std::vector<std::size_t> near;
  for (core::UeAgent* ue : world.ues()) {
    const NodeId id = ue->phone().id();
    grid.query_radius(nodes.position_of(id, TimePoint{}), range, near);
    for (const std::size_t r : near) {
      pairs += nodes.shard_of(relays[r]) != nodes.shard_of(id) ? 1 : 0;
    }
  }
  return pairs;
}

}  // namespace d2dhb::scenario

#include "world/node_table.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace d2dhb::world {

void NodeTable::add(NodeId id, const mobility::MobilityModel* mobility) {
  if (!id.valid()) {
    throw std::invalid_argument("NodeTable::add: invalid node id");
  }
  if (mobility == nullptr) {
    throw std::invalid_argument("NodeTable::add: mobility required");
  }
  if (id.value >= mobility_.size()) {
    const std::size_t rows = id.value + 1;
    mobility_.resize(rows, nullptr);
    cell_.resize(rows, kNoCell);
    d2d_slot_.resize(rows, kNoD2dSlot);
    shard_.resize(rows, 0);
  }
  if (mobility_[id.value] == nullptr) ++registered_;
  mobility_[id.value] = mobility;
}

const mobility::MobilityModel* NodeTable::checked(NodeId id) const {
  const mobility::MobilityModel* model =
      id.value < mobility_.size() ? mobility_[id.value] : nullptr;
  if (model == nullptr) {
    throw std::out_of_range("NodeTable: unknown node #" +
                            std::to_string(id.value));
  }
  return model;
}

std::size_t NodeTable::check_row(NodeId id) const {
  (void)checked(id);
  return static_cast<std::size_t>(id.value);
}

std::vector<NodeId> NodeTable::ids() const {
  std::vector<NodeId> out;
  out.reserve(registered_);
  for (std::uint64_t row = 1; row < mobility_.size(); ++row) {
    if (mobility_[row] != nullptr) out.push_back(NodeId{row});
  }
  return out;
}

namespace {
[[noreturn]] void audit_fail(const std::string& what) {
  throw std::logic_error("NodeTable audit: " + what);
}
}  // namespace

void NodeTable::audit() const {
  const std::size_t rows = mobility_.size();
  if (cell_.size() != rows || d2d_slot_.size() != rows ||
      shard_.size() != rows) {
    audit_fail("column lengths diverged");
  }
  if (rows > 0 && mobility_[0] != nullptr) {
    audit_fail("row 0 is registered (id 0 is reserved for invalid)");
  }
  std::size_t registered = 0;
  std::vector<std::uint32_t> slots;
  for (std::size_t row = 0; row < rows; ++row) {
    if (mobility_[row] != nullptr) {
      ++registered;
      if (d2d_slot_[row] != kNoD2dSlot) slots.push_back(d2d_slot_[row]);
    } else {
      if (cell_[row] != kNoCell || d2d_slot_[row] != kNoD2dSlot ||
          shard_[row] != 0) {
        audit_fail("unregistered row " + std::to_string(row) +
                   " holds non-default column values");
      }
    }
  }
  std::sort(slots.begin(), slots.end());
  const auto dup = std::adjacent_find(slots.begin(), slots.end());
  if (dup != slots.end()) {
    audit_fail("two rows share D2D slot " + std::to_string(*dup));
  }
  if (registered != registered_) {
    audit_fail("registered count " + std::to_string(registered_) +
               " != mobility column population " + std::to_string(registered));
  }
}

}  // namespace d2dhb::world

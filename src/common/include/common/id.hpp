// Strong identifier types. Distinct tag types keep node, message, and
// group identifiers from being cross-assigned.
#pragma once

#include <cstdint>
#include <functional>

namespace d2dhb {

template <typename Tag>
struct Id {
  std::uint64_t value{0};

  constexpr auto operator<=>(const Id&) const = default;
  constexpr bool valid() const { return value != 0; }

  static constexpr Id invalid() { return Id{0}; }
};

struct NodeTag {};
struct MessageTag {};
struct GroupTag {};
struct AppTag {};

/// Identifies a smartphone (UE or relay) in the simulation.
using NodeId = Id<NodeTag>;
/// Identifies a single heartbeat (or data) message end to end.
using MessageId = Id<MessageTag>;
/// Identifies a formed Wi-Fi Direct group (one group owner + clients).
using GroupId = Id<GroupTag>;
/// Identifies an installed IM application instance on a node.
using AppId = Id<AppTag>;

/// Monotonic generator for any Id type. Starts at 1 so that value 0 is
/// reserved for "invalid".
template <typename IdType>
class IdGenerator {
 public:
  IdType next() { return IdType{next_++}; }

 private:
  std::uint64_t next_{1};
};

}  // namespace d2dhb

template <typename Tag>
struct std::hash<d2dhb::Id<Tag>> {
  std::size_t operator()(const d2dhb::Id<Tag>& id) const noexcept {
    return std::hash<std::uint64_t>{}(id.value);
  }
};

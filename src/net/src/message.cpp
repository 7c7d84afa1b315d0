#include "net/message.hpp"

#include <stdexcept>
#include <string>

namespace d2dhb::net {

MessageId message_id(AppId app, std::uint64_t seq) {
  constexpr std::uint64_t kFieldLimit = std::uint64_t{1} << 32;
  if (app.value >= kFieldLimit || seq >= kFieldLimit) {
    throw std::out_of_range("net::message_id: app " +
                            std::to_string(app.value) + " or seq " +
                            std::to_string(seq) + " exceeds 32 bits");
  }
  return MessageId{app.value << 32 | seq};
}

HeartbeatMessage make_heartbeat(NodeId origin, AppId app, std::uint64_t seq,
                                Bytes size, Duration expiry,
                                TimePoint created_at) {
  return HeartbeatMessage{message_id(app, seq), origin, size, expiry,
                          created_at};
}

Bytes UplinkBundle::payload_size() const {
  Bytes total = extra_payload;
  for (const auto& m : messages) total += m.size;
  if (messages.size() > 1) {
    total += Bytes{kAggregationHeader.value *
                   static_cast<std::uint32_t>(messages.size())};
  }
  return total;
}

}  // namespace d2dhb::net

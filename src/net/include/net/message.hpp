// Heartbeat messages and aggregated uplink bundles.
//
// A heartbeat carries no application payload that matters to the
// framework — only its size, period, and expiration deadline (Table II's
// T_k), which are exactly the inputs of the scheduling algorithm.
#pragma once

#include <string>
#include <variant>
#include <vector>

#include "common/id.hpp"
#include "common/units.hpp"

namespace d2dhb::net {

struct HeartbeatMessage {
  MessageId id;
  NodeId origin;          ///< Smartphone that generated the heartbeat.
  AppId app;              ///< IM app instance on that phone.
  std::string app_name;   ///< e.g. "WeChat" — for reporting only.
  Bytes size;             ///< Wire size of the heartbeat.
  Duration period{};      ///< App's heartbeat period (e.g. 270 s).
  Duration expiry{};      ///< T_k: how long the server tolerates silence
                          ///< past this heartbeat's nominal send time.
  TimePoint created_at;   ///< When the app emitted it.
  std::uint64_t seq{0};   ///< Per-app sequence number.

  /// Latest instant at which delivering this heartbeat still keeps the
  /// server's expiration timer from firing.
  TimePoint deadline() const { return created_at + expiry; }
};

/// A heartbeat's id: its app's id in the high 32 bits, its per-app
/// sequence number in the low 32. Unique within one origin phone (its
/// apps have distinct ids), which is all the relay's feedback acks and
/// the UE's FeedbackTracker need; no counter is shared between phones.
/// Throws std::out_of_range if either field does not fit its bits.
MessageId message_id(AppId app, std::uint64_t seq);

/// One cellular uplink transmission: either a single heartbeat (original
/// system), the relay's aggregate of its own + forwarded heartbeats, or
/// a data transfer heartbeats piggyback on.
struct UplinkBundle {
  NodeId sender;                           ///< Phone doing the RRC cycle.
  std::vector<HeartbeatMessage> messages;  ///< In arrival order.
  /// Non-heartbeat payload riding in the same transmission (chat data a
  /// piggybacked heartbeat shares its RRC connection with).
  Bytes extra_payload{0};

  /// Total wire size: payloads plus a small per-message framing header
  /// when aggregated (the relay prefixes each forwarded heartbeat with
  /// origin routing info).
  Bytes payload_size() const;

  static constexpr Bytes kAggregationHeader{8};
};

/// Standard heartbeat size used throughout the paper's evaluation
/// (Section V-A: "the forwarded heartbeat messages in standard size,
/// 54 Bytes").
inline constexpr Bytes kStandardHeartbeatSize{54};

/// Relay -> UE acknowledgment that forwarded heartbeats reached the BS
/// (the feedback mechanism of Section III-A: "once the matched relay
/// transmitting the collected heartbeat messages successfully, the
/// proposed framework will notify the connected UE").
struct FeedbackAck {
  NodeId relay;
  std::vector<MessageId> delivered;
};

/// Anything a D2D frame can carry.
using D2dPayload = std::variant<HeartbeatMessage, FeedbackAck>;

/// Wire size of a D2D payload (feedback acks are tiny control frames).
Bytes payload_size(const D2dPayload& payload);

}  // namespace d2dhb::net

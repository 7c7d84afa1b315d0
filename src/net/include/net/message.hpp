// Heartbeat messages and aggregated uplink bundles.
//
// The framework forwards an app's heartbeat opaquely (Section III-A), so
// a heartbeat is five plain fields, each with a reader:
//   id          the relay's feedback acks, the UE's FeedbackTracker and
//               the backhaul's loss draw; the IM server keys sessions by
//               (origin, app()), and app() is read from the id;
//   origin      the relay (whom to ack) and the IM server;
//   size        D2D transfer energy and the uplink's payload size;
//   expiry      T_k: the scheduler's and the baseline's deadlines, and
//               the IM server's tolerance for a client it first meets;
//   created_at  those deadlines and the IM server's latency.
// It is a trivially copyable 40-byte value, copied at every hop.
#pragma once

#include <cstdint>
#include <variant>
#include <vector>

#include "common/id.hpp"
#include "common/units.hpp"

namespace d2dhb::net {

struct HeartbeatMessage {
  MessageId id;           ///< message_id(app, seq).
  NodeId origin;          ///< Smartphone that generated the heartbeat.
  Bytes size;             ///< Wire size of the heartbeat.
  Duration expiry{};      ///< T_k: how long the server tolerates silence
                          ///< past this heartbeat's nominal send time.
  TimePoint created_at;   ///< When the app emitted it.

  /// The IM app instance on `origin` that emitted it.
  AppId app() const { return AppId{id.value >> 32}; }
  /// Its per-app sequence number.
  std::uint64_t seq() const { return id.value & 0xffff'ffffu; }

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

/// The `seq`-th heartbeat of app `app` on phone `origin`, emitted at
/// `created_at`. The one way to mint a heartbeat: its id is
/// message_id(app, seq), so it throws std::out_of_range past 32 bits.
HeartbeatMessage make_heartbeat(NodeId origin, AppId app, std::uint64_t seq,
                                Bytes size, Duration expiry,
                                TimePoint created_at);

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
/// proposed framework will notify the connected UE"). The sender is the
/// link it arrives on; the radio prices it as a flat control frame.
struct FeedbackAck {
  std::vector<MessageId> delivered;
};

/// Anything a D2D frame can carry.
using D2dPayload = std::variant<HeartbeatMessage, FeedbackAck>;

}  // namespace d2dhb::net

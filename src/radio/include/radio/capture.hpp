// Layer-3 capture listing — the NetOptiMaster-style view of Fig. 14:
// one line per control-plane message with timestamp, direction, channel,
// and message name.
#pragma once

#include <iosfwd>
#include <vector>

#include "radio/signaling.hpp"

namespace d2dhb::radio {

enum class LinkDirection { uplink, downlink };

/// Who transmits each L3 message type (UE -> network = uplink).
LinkDirection direction_of(L3MessageType type);

/// Logical channel the message rides on, as capture tools label it.
const char* channel_of(L3MessageType type);

/// Prints a NetOptiMaster-style listing of the first `limit` records
/// (0 = all): time, UL/DL, channel, message name, node.
void print_capture(std::ostream& os,
                   const std::vector<SignalingCounter::Record>& records,
                   std::size_t limit = 0);

}  // namespace d2dhb::radio

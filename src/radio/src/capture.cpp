#include "radio/capture.hpp"

#include <iomanip>
#include <ostream>

namespace d2dhb::radio {

LinkDirection direction_of(L3MessageType type) {
  switch (type) {
    case L3MessageType::rrc_connection_request:
    case L3MessageType::rrc_connection_setup_complete:
    case L3MessageType::radio_bearer_setup_complete:
    case L3MessageType::rrc_connection_release_complete:
    case L3MessageType::measurement_report:
    case L3MessageType::signaling_connection_release_indication:
      return LinkDirection::uplink;
    case L3MessageType::rrc_connection_setup:
    case L3MessageType::radio_bearer_setup:
    case L3MessageType::radio_bearer_reconfiguration:
    case L3MessageType::physical_channel_reconfiguration:
    case L3MessageType::rrc_connection_release:
    case L3MessageType::security_mode_command:
      return LinkDirection::downlink;
    case L3MessageType::kCount:
      break;
  }
  return LinkDirection::uplink;
}

const char* channel_of(L3MessageType type) {
  switch (type) {
    case L3MessageType::rrc_connection_request:
      return "CCCH";  // common control channel, before the connection
    case L3MessageType::rrc_connection_setup:
      return "CCCH";
    default:
      return "DCCH";  // dedicated control channel once connected
  }
}

void print_capture(std::ostream& os,
                   const std::vector<SignalingCounter::Record>& records,
                   std::size_t limit) {
  os << "  Time(s)    Dir  Chan  Message                              "
        "Node\n";
  os << "  ---------  ---  ----  -----------------------------------  "
        "----\n";
  std::size_t printed = 0;
  for (const auto& record : records) {
    if (limit != 0 && printed >= limit) {
      os << "  ... (" << records.size() - printed
         << " more)\n";
      break;
    }
    os << "  " << std::fixed << std::setw(9) << std::setprecision(3)
       << to_seconds(record.when) << "  "
       << (direction_of(record.type) == LinkDirection::uplink ? "UL " : "DL ")
       << "  " << std::setw(4) << channel_of(record.type) << "  "
       << std::left << std::setw(35) << to_string(record.type) << std::right
       << "  #" << record.node.value << '\n';
    ++printed;
  }
}

}  // namespace d2dhb::radio

#include "radio/signaling.hpp"

#include <algorithm>

namespace d2dhb::radio {

const char* to_string(L3MessageType type) {
  switch (type) {
    case L3MessageType::rrc_connection_request:
      return "RRC CONNECTION REQUEST";
    case L3MessageType::rrc_connection_setup:
      return "RRC CONNECTION SETUP";
    case L3MessageType::rrc_connection_setup_complete:
      return "RRC CONNECTION SETUP COMPLETE";
    case L3MessageType::radio_bearer_setup:
      return "RADIO BEARER SETUP";
    case L3MessageType::radio_bearer_setup_complete:
      return "RADIO BEARER SETUP COMPLETE";
    case L3MessageType::radio_bearer_reconfiguration:
      return "RADIO BEARER RECONFIGURATION";
    case L3MessageType::physical_channel_reconfiguration:
      return "PHYSICAL CHANNEL RECONFIGURATION";
    case L3MessageType::rrc_connection_release:
      return "RRC CONNECTION RELEASE";
    case L3MessageType::rrc_connection_release_complete:
      return "RRC CONNECTION RELEASE COMPLETE";
    case L3MessageType::security_mode_command:
      return "SECURITY MODE COMMAND";
    case L3MessageType::measurement_report:
      return "MEASUREMENT REPORT";
    case L3MessageType::signaling_connection_release_indication:
      return "SIGNALING CONNECTION RELEASE INDICATION";
    case L3MessageType::kCount:
      break;
  }
  return "UNKNOWN";
}

std::uint64_t CellSignaling::count_for(NodeId node) const {
  std::uint64_t count = 0;
  for (const auto& strip : strips_) {
    for (const Record& r : strip.records()) count += r.node == node;
  }
  return count;
}

std::uint64_t CellSignaling::count_of(L3MessageType type) const {
  std::uint64_t count = 0;
  for (const auto& strip : strips_) {
    for (const Record& r : strip.records()) count += r.type == type;
  }
  return count;
}

std::uint64_t CellSignaling::peak_rate(Duration window) const {
  const std::vector<Record> sorted = records();
  std::uint64_t peak = 0;
  std::size_t lo = 0;
  for (std::size_t hi = 0; hi < sorted.size(); ++hi) {
    while (sorted[hi].when - sorted[lo].when > window) ++lo;
    peak = std::max<std::uint64_t>(peak, hi - lo + 1);
  }
  return peak;
}

std::vector<CellSignaling::Record> CellSignaling::records() const {
  std::vector<Record> merged;
  merged.reserve(total());
  for (const auto& strip : strips_) {
    merged.insert(merged.end(), strip.records().begin(),
                  strip.records().end());
  }
  std::stable_sort(
      merged.begin(), merged.end(),
      [](const Record& a, const Record& b) { return a.when < b.when; });
  return merged;
}

void CellSignaling::clear() {
  for (auto& strip : strips_) strip.clear();
}

}  // namespace d2dhb::radio

// Layer-3 signaling accounting — the substitute for the paper's
// NetOptiMaster capture (Section V-B, Fig. 14/15). Every control-plane
// message a modem exchanges with the BS is recorded here with its
// timestamp, giving both per-node totals and control-channel load.
#pragma once

#include <cstdint>
#include <vector>

#include "common/id.hpp"
#include "common/units.hpp"

namespace d2dhb::radio {

enum class L3MessageType : std::uint8_t {
  rrc_connection_request,
  rrc_connection_setup,
  rrc_connection_setup_complete,
  radio_bearer_setup,
  radio_bearer_setup_complete,
  radio_bearer_reconfiguration,
  physical_channel_reconfiguration,
  rrc_connection_release,
  rrc_connection_release_complete,
  security_mode_command,
  measurement_report,
  /// Device-initiated fast dormancy request (3GPP SCRI): the phone asks
  /// the network to release the connection right after its data burst
  /// instead of waiting out the inactivity tails.
  signaling_connection_release_indication,
  kCount,
};

const char* to_string(L3MessageType type);

/// One writer's log of L3 messages: a cell keeps one per strip
/// (CellSignaling), and only that strip's kernel records into it, so it
/// needs no lock.
class SignalingCounter {
 public:
  struct Record {
    TimePoint when;
    NodeId node;
    L3MessageType type;
  };

  void record(TimePoint when, NodeId node, L3MessageType type) {
    records_.push_back(Record{when, node, type});
  }
  void record_sequence(TimePoint when, NodeId node,
                       const std::vector<L3MessageType>& sequence) {
    for (const auto type : sequence) record(when, node, type);
  }

  std::uint64_t total() const { return records_.size(); }
  /// Raw records in recording order.
  const std::vector<Record>& records() const { return records_; }
  void clear() { records_.clear(); }

 private:
  std::vector<Record> records_;
};

/// A cell's control-channel load: one single-writer SignalingCounter
/// per strip. A phone records into its home strip's counter (handed to
/// it by Scenario::add_phone), so no two threads share one. Reads merge
/// the strips after a run; none depends on the thread count.
class CellSignaling {
 public:
  using Record = SignalingCounter::Record;

  explicit CellSignaling(std::size_t strips = 1) : strips_(strips) {}

  /// The counter phones homed on `strip` record into.
  SignalingCounter& strip(std::size_t strip) { return strips_.at(strip); }

  std::uint64_t total() const {
    std::uint64_t total = 0;
    for (const auto& strip : strips_) total += strip.total();
    return total;
  }
  std::uint64_t count_for(NodeId node) const;
  std::uint64_t count_of(L3MessageType type) const;

  /// Peak number of L3 messages inside any sliding window of `window`
  /// length — a proxy for instantaneous control-channel load (the
  /// quantity that overloads during a signaling storm). Exact: a
  /// two-pointer sweep over the time-ordered merge of every strip.
  std::uint64_t peak_rate(Duration window) const;
  /// Every strip's records, ordered by time; ties keep strip order,
  /// then recording order.
  std::vector<Record> records() const;
  void clear();

 private:
  std::vector<SignalingCounter> strips_;
};

}  // namespace d2dhb::radio

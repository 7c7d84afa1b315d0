#include "radio/signaling.hpp"

#include <gtest/gtest.h>

namespace d2dhb::radio {
namespace {

TEST(SignalingCounter, RecordsAndCounts) {
  CellSignaling cell;
  SignalingCounter& strip = cell.strip(0);
  strip.record(TimePoint{}, NodeId{1}, L3MessageType::rrc_connection_request);
  strip.record(TimePoint{}, NodeId{1}, L3MessageType::rrc_connection_setup);
  strip.record(TimePoint{}, NodeId{2}, L3MessageType::rrc_connection_request);
  EXPECT_EQ(cell.total(), 3u);
  EXPECT_EQ(cell.count_for(NodeId{1}), 2u);
  EXPECT_EQ(cell.count_for(NodeId{2}), 1u);
  EXPECT_EQ(cell.count_for(NodeId{3}), 0u);
  EXPECT_EQ(cell.count_of(L3MessageType::rrc_connection_request), 2u);
  EXPECT_EQ(cell.count_of(L3MessageType::rrc_connection_release), 0u);
}

TEST(SignalingCounter, RecordSequence) {
  SignalingCounter counter;
  const std::vector<L3MessageType> seq{
      L3MessageType::rrc_connection_request,
      L3MessageType::rrc_connection_setup,
      L3MessageType::rrc_connection_setup_complete,
  };
  counter.record_sequence(TimePoint{} + seconds(1), NodeId{1}, seq);
  EXPECT_EQ(counter.total(), 3u);
  EXPECT_EQ(counter.records().front().when, TimePoint{} + seconds(1));
}

TEST(SignalingCounter, PeakRateSlidingWindow) {
  CellSignaling cell;
  SignalingCounter& counter = cell.strip(0);
  // 5 messages at t=0..4 s, then 2 at t=100.
  for (int i = 0; i < 5; ++i) {
    counter.record(TimePoint{} + seconds(i), NodeId{1},
                   L3MessageType::measurement_report);
  }
  counter.record(TimePoint{} + seconds(100), NodeId{1},
                 L3MessageType::measurement_report);
  counter.record(TimePoint{} + seconds(100), NodeId{1},
                 L3MessageType::measurement_report);
  EXPECT_EQ(cell.peak_rate(seconds(10)), 5u);
  EXPECT_EQ(cell.peak_rate(seconds(2)), 3u);
  EXPECT_EQ(cell.peak_rate(seconds(200)), 7u);
}

TEST(SignalingCounter, PeakRateEmpty) {
  const CellSignaling cell{3};
  EXPECT_EQ(cell.peak_rate(seconds(10)), 0u);
}

TEST(SignalingCounter, ClearResets) {
  CellSignaling cell{2};
  cell.strip(1).record(TimePoint{}, NodeId{1},
                       L3MessageType::rrc_connection_setup);
  cell.clear();
  EXPECT_EQ(cell.total(), 0u);
  EXPECT_EQ(cell.count_for(NodeId{1}), 0u);
  EXPECT_EQ(cell.count_of(L3MessageType::rrc_connection_setup), 0u);
}

TEST(L3MessageType, NamesAreStable) {
  EXPECT_STREQ(to_string(L3MessageType::rrc_connection_request),
               "RRC CONNECTION REQUEST");
  EXPECT_STREQ(to_string(L3MessageType::radio_bearer_reconfiguration),
               "RADIO BEARER RECONFIGURATION");
  EXPECT_STREQ(to_string(L3MessageType::rrc_connection_release_complete),
               "RRC CONNECTION RELEASE COMPLETE");
}

}  // namespace
}  // namespace d2dhb::radio

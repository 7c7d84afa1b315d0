#include "radio/capture.hpp"

#include <gtest/gtest.h>

#include <sstream>

namespace d2dhb::radio {
namespace {

TEST(Capture, DirectionsFollowProtocolRoles) {
  EXPECT_EQ(direction_of(L3MessageType::rrc_connection_request),
            LinkDirection::uplink);
  EXPECT_EQ(direction_of(L3MessageType::rrc_connection_setup),
            LinkDirection::downlink);
  EXPECT_EQ(direction_of(L3MessageType::rrc_connection_setup_complete),
            LinkDirection::uplink);
  EXPECT_EQ(direction_of(L3MessageType::rrc_connection_release),
            LinkDirection::downlink);
  EXPECT_EQ(direction_of(L3MessageType::rrc_connection_release_complete),
            LinkDirection::uplink);
  EXPECT_EQ(direction_of(L3MessageType::radio_bearer_reconfiguration),
            LinkDirection::downlink);
  // Fast dormancy's SCRI is device-initiated, hence uplink.
  EXPECT_EQ(
      direction_of(L3MessageType::signaling_connection_release_indication),
      LinkDirection::uplink);
}

TEST(Capture, ChannelAssignment) {
  // Connection request/setup ride the common control channel; the rest
  // use the dedicated one.
  EXPECT_STREQ(channel_of(L3MessageType::rrc_connection_request), "CCCH");
  EXPECT_STREQ(channel_of(L3MessageType::rrc_connection_setup), "CCCH");
  EXPECT_STREQ(channel_of(L3MessageType::radio_bearer_setup), "DCCH");
  EXPECT_STREQ(channel_of(L3MessageType::rrc_connection_release), "DCCH");
}

TEST(Capture, PrintsOneLinePerRecord) {
  SignalingCounter counter;
  counter.record(TimePoint{} + seconds(1), NodeId{1},
                 L3MessageType::rrc_connection_request);
  counter.record(TimePoint{} + seconds(2), NodeId{1},
                 L3MessageType::rrc_connection_setup);
  std::ostringstream os;
  print_capture(os, counter.records());
  const std::string out = os.str();
  EXPECT_NE(out.find("RRC CONNECTION REQUEST"), std::string::npos);
  EXPECT_NE(out.find("RRC CONNECTION SETUP"), std::string::npos);
  EXPECT_NE(out.find("UL"), std::string::npos);
  EXPECT_NE(out.find("DL"), std::string::npos);
  EXPECT_NE(out.find("#1"), std::string::npos);
}

TEST(Capture, LimitTruncatesWithEllipsis) {
  SignalingCounter counter;
  for (int i = 0; i < 5; ++i) {
    counter.record(TimePoint{} + seconds(i), NodeId{1},
                   L3MessageType::measurement_report);
  }
  std::ostringstream os;
  print_capture(os, counter.records(), 2);
  EXPECT_NE(os.str().find("(3 more)"), std::string::npos);
}

TEST(Capture, EmptyCounterPrintsHeaderOnly) {
  SignalingCounter counter;
  std::ostringstream os;
  print_capture(os, counter.records());
  EXPECT_NE(os.str().find("Message"), std::string::npos);
}

}  // namespace
}  // namespace d2dhb::radio

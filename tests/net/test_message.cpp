#include "net/message.hpp"

#include <gtest/gtest.h>

#include <array>
#include <new>
#include <stdexcept>

namespace d2dhb::net {
namespace {

HeartbeatMessage make(std::uint64_t id, std::uint32_t size,
                      double expiry_s = 270.0) {
  HeartbeatMessage m;
  m.id = MessageId{id};
  m.origin = NodeId{1};
  m.app = AppId{1};
  m.size = Bytes{size};
  m.period = seconds(270);
  m.expiry = seconds(expiry_s);
  m.created_at = TimePoint{} + seconds(100);
  return m;
}

TEST(HeartbeatMessage, DefaultConstructedHasZeroPeriodAndExpiry) {
  // Default-initialize over dirty bytes, so a field without its own
  // initializer would read back the fill pattern instead of zero.
  alignas(HeartbeatMessage) std::array<unsigned char, sizeof(HeartbeatMessage)>
      storage;
  storage.fill(0xAB);
  auto* m = ::new (storage.data()) HeartbeatMessage;
  EXPECT_EQ(m->period, Duration::zero());
  EXPECT_EQ(m->expiry, Duration::zero());
  EXPECT_EQ(m->deadline() - m->created_at, Duration::zero());
  m->~HeartbeatMessage();
}

TEST(MessageIdOf, PacksAppAboveSeq) {
  EXPECT_EQ(message_id(AppId{3}, 7).value, (std::uint64_t{3} << 32) | 7u);
  EXPECT_NE(message_id(AppId{3}, 7), message_id(AppId{7}, 3));
  EXPECT_TRUE(message_id(AppId{0}, 1).valid());
  constexpr std::uint64_t kMax = (std::uint64_t{1} << 32) - 1;
  EXPECT_EQ(message_id(AppId{kMax}, kMax).value, ~std::uint64_t{0});
}

TEST(MessageIdOf, ThrowsWhenAFieldOverflows) {
  constexpr std::uint64_t kLimit = std::uint64_t{1} << 32;
  EXPECT_THROW(message_id(AppId{kLimit}, 1), std::out_of_range);
  EXPECT_THROW(message_id(AppId{1}, kLimit), std::out_of_range);
}

TEST(HeartbeatMessage, DeadlineIsCreationPlusExpiry) {
  const HeartbeatMessage m = make(1, 54, 270.0);
  EXPECT_EQ(m.deadline(), TimePoint{} + seconds(370));
}

TEST(UplinkBundle, SingleMessageHasNoAggregationHeader) {
  UplinkBundle b;
  b.sender = NodeId{1};
  b.messages = {make(1, 54)};
  EXPECT_EQ(b.payload_size().value, 54u);
}

TEST(UplinkBundle, AggregatePaysPerMessageHeader) {
  UplinkBundle b;
  b.sender = NodeId{1};
  b.messages = {make(1, 54), make(2, 54), make(3, 54)};
  EXPECT_EQ(b.payload_size().value,
            3 * 54 + 3 * UplinkBundle::kAggregationHeader.value);
}

TEST(UplinkBundle, EmptyBundleIsZeroBytes) {
  UplinkBundle b;
  EXPECT_EQ(b.payload_size().value, 0u);
}

TEST(D2dPayload, HeartbeatSize) {
  const D2dPayload p{make(1, 74)};
  EXPECT_EQ(payload_size(p).value, 74u);
}

TEST(D2dPayload, FeedbackAckSizeScalesWithIds) {
  FeedbackAck ack;
  ack.relay = NodeId{9};
  ack.delivered = {MessageId{1}, MessageId{2}};
  EXPECT_EQ(payload_size(D2dPayload{ack}).value, 12u + 16u);
}

TEST(StandardSize, MatchesPaper) {
  EXPECT_EQ(kStandardHeartbeatSize.value, 54u);
}

TEST(UplinkBundle, ExtraPayloadRidesAlong) {
  UplinkBundle b;
  b.sender = NodeId{1};
  b.extra_payload = Bytes{500};  // chat data a heartbeat piggybacks on
  b.messages = {make(1, 54)};
  EXPECT_EQ(b.payload_size().value, 554u);
}

TEST(UplinkBundle, DataOnlyBundle) {
  UplinkBundle b;
  b.sender = NodeId{1};
  b.extra_payload = Bytes{300};
  EXPECT_EQ(b.payload_size().value, 300u);
}

}  // namespace
}  // namespace d2dhb::net

#include "net/message.hpp"

#include <gtest/gtest.h>

#include <array>
#include <new>
#include <stdexcept>
#include <type_traits>
#include <utility>

namespace d2dhb::net {
namespace {

HeartbeatMessage make(std::uint64_t seq, std::uint32_t size,
                      double expiry_s = 270.0) {
  return make_heartbeat(NodeId{1}, AppId{1}, seq, Bytes{size},
                        seconds(expiry_s), TimePoint{} + seconds(100));
}

// Copied at every hop and parked in every relay's scheduler: a heartbeat
// is a plain 40-byte value (id, origin, size + padding, expiry,
// created_at), with no string or heap storage behind it.
TEST(HeartbeatMessage, IsAFortyByteTrivialValue) {
  EXPECT_TRUE(std::is_trivially_copyable_v<HeartbeatMessage>);
  EXPECT_EQ(sizeof(HeartbeatMessage), 40u);
}

TEST(HeartbeatMessage, DefaultConstructedIsZero) {
  // Default-initialize over dirty bytes, so a field without its own
  // initializer would read back the fill pattern instead of zero.
  alignas(HeartbeatMessage) std::array<unsigned char, sizeof(HeartbeatMessage)>
      storage;
  storage.fill(0xAB);
  auto* m = ::new (storage.data()) HeartbeatMessage;
  EXPECT_FALSE(m->id.valid());
  EXPECT_FALSE(m->origin.valid());
  EXPECT_EQ(m->size.value, 0u);
  EXPECT_EQ(m->expiry, Duration::zero());
  EXPECT_EQ(m->created_at, TimePoint{});
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

TEST(MessageIdOf, AppAndSeqRoundTripThroughTheId) {
  constexpr std::uint64_t kMax = (std::uint64_t{1} << 32) - 1;
  for (const auto& [app, seq] :
       {std::pair<std::uint64_t, std::uint64_t>{1, 1}, {3, 7},
        {1002, 1}, {kMax, 0}, {0, kMax}, {kMax, kMax}}) {
    const HeartbeatMessage m = make_heartbeat(
        NodeId{9}, AppId{app}, seq, Bytes{54}, seconds(270), TimePoint{});
    EXPECT_EQ(m.id, message_id(AppId{app}, seq));
    EXPECT_EQ(m.app(), AppId{app});
    EXPECT_EQ(m.seq(), seq);
    EXPECT_EQ(m.origin, NodeId{9});
  }
}

TEST(MessageIdOf, FactoryKeepsTheOverflowCheck) {
  constexpr std::uint64_t kLimit = std::uint64_t{1} << 32;
  EXPECT_THROW(make_heartbeat(NodeId{1}, AppId{kLimit}, 1, Bytes{54},
                              seconds(270), TimePoint{}),
               std::out_of_range);
  EXPECT_THROW(make_heartbeat(NodeId{1}, AppId{1}, kLimit, Bytes{54},
                              seconds(270), TimePoint{}),
               std::out_of_range);
  EXPECT_NO_THROW(make_heartbeat(NodeId{1}, AppId{kLimit - 1}, kLimit - 1,
                                 Bytes{54}, seconds(270), TimePoint{}));
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

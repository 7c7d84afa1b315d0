#include "apps/heartbeat_app.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "sim/simulator.hpp"

namespace d2dhb::apps {
namespace {

class HeartbeatAppTest : public ::testing::Test {
 protected:
  HeartbeatApp make_app(AppProfile profile, std::size_t index = 0) {
    return HeartbeatApp{
        sim_, NodeId{1}, app_id_for(NodeId{1}, index), std::move(profile),
        [this](const net::HeartbeatMessage& m) { received_.push_back(m); }};
  }

  sim::Simulator sim_;
  std::vector<net::HeartbeatMessage> received_;
};

TEST_F(HeartbeatAppTest, EmitsOnProfilePeriod) {
  HeartbeatApp app = make_app(standard_app());
  app.start();
  sim_.run_until(TimePoint{} + seconds(270 * 3 + 1));
  EXPECT_EQ(received_.size(), 3u);
  EXPECT_EQ(received_[0].created_at, TimePoint{} + seconds(270));
  EXPECT_EQ(received_[2].created_at, TimePoint{} + seconds(810));
}

TEST_F(HeartbeatAppTest, MessagesCarryProfileParameters) {
  HeartbeatApp app = make_app(wechat());
  app.start();
  sim_.run_until(TimePoint{} + seconds(271));
  ASSERT_EQ(received_.size(), 1u);
  const auto& m = received_[0];
  EXPECT_EQ(m.size.value, 74u);
  EXPECT_EQ(m.expiry, seconds(270));
  EXPECT_EQ(m.origin, NodeId{1});
  EXPECT_EQ(m.app(), app.app_id());
  EXPECT_EQ(m.seq(), 1u);
  EXPECT_TRUE(m.id.valid());
}

TEST_F(HeartbeatAppTest, SequenceNumbersIncrease) {
  HeartbeatApp app = make_app(standard_app());
  app.start();
  sim_.run_until(TimePoint{} + seconds(270 * 4));
  ASSERT_EQ(received_.size(), 4u);
  for (std::size_t i = 0; i < received_.size(); ++i) {
    EXPECT_EQ(received_[i].seq(), i + 1);
  }
}

TEST_F(HeartbeatAppTest, UniqueMessageIds) {
  // Two apps of one phone: ids are (app, seq), unique per origin.
  HeartbeatApp a = make_app(standard_app(), 0);
  HeartbeatApp b = make_app(whatsapp(), 1);
  a.start();
  b.start();
  sim_.run_until(TimePoint{} + seconds(1000));
  std::set<std::uint64_t> ids;
  for (const auto& m : received_) ids.insert(m.id.value);
  EXPECT_EQ(ids.size(), received_.size());
}

TEST_F(HeartbeatAppTest, StartWithOffsetStaggersFirstBeat) {
  HeartbeatApp app = make_app(standard_app());
  app.start(seconds(100));
  sim_.run_until(TimePoint{} + seconds(400));
  ASSERT_EQ(received_.size(), 2u);
  EXPECT_EQ(received_[0].created_at, TimePoint{} + seconds(100));
  EXPECT_EQ(received_[1].created_at, TimePoint{} + seconds(370));
}

TEST_F(HeartbeatAppTest, StopHaltsEmission) {
  HeartbeatApp app = make_app(standard_app());
  app.start();
  sim_.run_until(TimePoint{} + seconds(271));
  app.stop();
  sim_.run_until(TimePoint{} + seconds(2000));
  EXPECT_EQ(received_.size(), 1u);
}

TEST_F(HeartbeatAppTest, MaxEmissionsBoundsOutput) {
  HeartbeatApp app = make_app(standard_app());
  app.set_max_emissions(3);
  app.start();
  sim_.run_until(TimePoint{} + seconds(270 * 10));
  EXPECT_EQ(received_.size(), 3u);
  EXPECT_EQ(app.emitted(), 3u);
}

TEST_F(HeartbeatAppTest, EmitNowBypassesSchedule) {
  HeartbeatApp app = make_app(standard_app());
  const net::HeartbeatMessage m = app.emit_now();
  EXPECT_EQ(m.created_at, TimePoint{});
  EXPECT_EQ(received_.size(), 1u);
  EXPECT_EQ(app.emitted(), 1u);
}

}  // namespace
}  // namespace d2dhb::apps

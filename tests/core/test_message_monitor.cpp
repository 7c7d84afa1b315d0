#include "core/message_monitor.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "sim/simulator.hpp"

namespace d2dhb::core {
namespace {

class MessageMonitorTest : public ::testing::Test {
 protected:
  sim::Simulator sim_;
};

TEST_F(MessageMonitorTest, InterceptsIntegratedAppsHeartbeats) {
  MessageMonitor monitor{sim_, NodeId{1}};
  std::vector<net::HeartbeatMessage> seen;
  monitor.set_transport(
      [&](const net::HeartbeatMessage& m) { seen.push_back(m); });
  monitor.integrate_app(apps::wechat());
  monitor.integrate_app(apps::whatsapp());
  EXPECT_EQ(monitor.app_count(), 2u);
  monitor.start_all();
  sim_.run_until(TimePoint{} + seconds(600));
  // WeChat at 270 & 540; WhatsApp at 240 & 480.
  ASSERT_EQ(seen.size(), 4u);
  EXPECT_EQ(monitor.intercepted(), 4u);
}

TEST_F(MessageMonitorTest, TransportReceivesAppParameters) {
  MessageMonitor monitor{sim_, NodeId{7}};
  net::HeartbeatMessage last;
  monitor.set_transport(
      [&](const net::HeartbeatMessage& m) { last = m; });
  monitor.integrate_app(apps::qq());
  monitor.start_all();
  sim_.run_until(TimePoint{} + seconds(301));
  EXPECT_EQ(last.size.value, 378u);
  EXPECT_EQ(last.expiry, apps::qq().expiry);
  EXPECT_EQ(last.origin, NodeId{7});
}

TEST_F(MessageMonitorTest, NoTransportDropsSilently) {
  MessageMonitor monitor{sim_, NodeId{1}};
  monitor.integrate_app(apps::wechat());
  monitor.start_all();
  sim_.run_until(TimePoint{} + seconds(600));  // must not crash
  EXPECT_EQ(monitor.intercepted(), 2u);
}

TEST_F(MessageMonitorTest, SwappingTransportRedirectsFlow) {
  MessageMonitor monitor{sim_, NodeId{1}};
  int first = 0, second = 0;
  monitor.set_transport([&](const net::HeartbeatMessage&) { ++first; });
  apps::AppProfile profile = apps::standard_app();
  profile.heartbeat_period = seconds(50);
  monitor.integrate_app(profile);
  monitor.start_all();
  sim_.run_until(TimePoint{} + seconds(120));  // beats at 50, 100
  monitor.set_transport([&](const net::HeartbeatMessage&) { ++second; });
  sim_.run_until(TimePoint{} + seconds(220));  // beats at 150, 200
  EXPECT_EQ(first, 2);
  EXPECT_EQ(second, 2);
}

TEST_F(MessageMonitorTest, StopAllHaltsEveryApp) {
  MessageMonitor monitor{sim_, NodeId{1}};
  int count = 0;
  monitor.set_transport([&](const net::HeartbeatMessage&) { ++count; });
  monitor.integrate_app(apps::wechat());
  monitor.integrate_app(apps::whatsapp());
  monitor.start_all();
  sim_.run_until(TimePoint{} + seconds(300));
  monitor.stop_all();
  const int at_stop = count;
  sim_.run_until(TimePoint{} + seconds(3000));
  EXPECT_EQ(count, at_stop);
}

TEST_F(MessageMonitorTest, DistinctAppIds) {
  MessageMonitor monitor{sim_, NodeId{3}};
  auto& a = monitor.integrate_app(apps::wechat());
  auto& b = monitor.integrate_app(apps::qq());
  EXPECT_EQ(a.app_id(), AppId{3});
  EXPECT_NE(b.app_id(), a.app_id());
}

}  // namespace
}  // namespace d2dhb::core

#include "net/im_server.hpp"

#include <gtest/gtest.h>

#include <cstdint>

#include "sim/engine.hpp"

namespace d2dhb::net {
namespace {

class ImServerTest : public ::testing::Test {
 protected:
  HeartbeatMessage heartbeat(std::uint64_t node, double expiry_s = 300.0) {
    return make_heartbeat(NodeId{node}, AppId{node}, ++next_seq_, Bytes{54},
                          seconds(expiry_s), sim_.now());
  }

  sim::Simulator sim_;
  ImServer server_{sim_};
  std::uint64_t next_seq_{0};
};

TEST_F(ImServerTest, RegisteredClientStartsOnline) {
  server_.register_client(NodeId{1}, AppId{1}, seconds(300));
  EXPECT_TRUE(server_.online(NodeId{1}, AppId{1}));
}

TEST_F(ImServerTest, UnknownClientIsOffline) {
  EXPECT_FALSE(server_.online(NodeId{99}, AppId{99}));
}

TEST_F(ImServerTest, GoesOfflineAfterExpiry) {
  server_.register_client(NodeId{1}, AppId{1}, seconds(300));
  sim_.run_until(TimePoint{} + seconds(301));
  EXPECT_FALSE(server_.online(NodeId{1}, AppId{1}));
}

TEST_F(ImServerTest, HeartbeatResetsDeadline) {
  server_.register_client(NodeId{1}, AppId{1}, seconds(300));
  sim_.run_until(TimePoint{} + seconds(250));
  server_.deliver(heartbeat(1));
  sim_.run_until(TimePoint{} + seconds(500));
  EXPECT_TRUE(server_.online(NodeId{1}, AppId{1}));  // deadline now 550
  const auto& s = server_.stats(NodeId{1}, AppId{1});
  EXPECT_EQ(s.delivered, 1u);
  EXPECT_EQ(s.on_time, 1u);
  EXPECT_EQ(s.late, 0u);
}

TEST_F(ImServerTest, LateHeartbeatCountsOfflineEvent) {
  server_.register_client(NodeId{1}, AppId{1}, seconds(300));
  sim_.run_until(TimePoint{} + seconds(400));  // 100 s past deadline
  server_.deliver(heartbeat(1));
  const auto& s = server_.stats(NodeId{1}, AppId{1});
  EXPECT_EQ(s.late, 1u);
  EXPECT_EQ(s.offline_events, 1u);
  EXPECT_EQ(s.total_offline, seconds(100));
  // Back online after the late heartbeat.
  EXPECT_TRUE(server_.online(NodeId{1}, AppId{1}));
}

TEST_F(ImServerTest, AutoRegistersOnFirstContact) {
  server_.deliver(heartbeat(5, 200.0));
  EXPECT_TRUE(server_.online(NodeId{5}, AppId{5}));
  sim_.run_until(TimePoint{} + seconds(201));
  EXPECT_FALSE(server_.online(NodeId{5}, AppId{5}));
}

TEST_F(ImServerTest, BundleDeliversAllMessages) {
  UplinkBundle bundle;
  bundle.sender = NodeId{1};
  bundle.messages = {heartbeat(1), heartbeat(2), heartbeat(3)};
  server_.deliver(bundle);
  EXPECT_EQ(server_.session_count(), 3u);
  EXPECT_EQ(server_.totals().delivered, 3u);
  EXPECT_EQ(server_.totals().on_time, 3u);
}

TEST_F(ImServerTest, TotalsAggregateAcrossSessions) {
  server_.register_client(NodeId{1}, AppId{1}, seconds(100));
  server_.register_client(NodeId{2}, AppId{2}, seconds(100));
  sim_.run_until(TimePoint{} + seconds(150));  // both lapsed
  server_.deliver(heartbeat(1));
  server_.deliver(heartbeat(2));
  const auto t = server_.totals();
  EXPECT_EQ(t.delivered, 2u);
  EXPECT_EQ(t.late, 2u);
  EXPECT_EQ(t.offline_events, 2u);
}

TEST_F(ImServerTest, StatsThrowsForUnknownSession) {
  EXPECT_THROW(server_.stats(NodeId{42}, AppId{42}), std::out_of_range);
}

TEST_F(ImServerTest, DistinctAppsOnSameNodeAreIndependent) {
  server_.register_client(NodeId{1}, AppId{10}, seconds(100));
  server_.register_client(NodeId{1}, AppId{20}, seconds(500));
  sim_.run_until(TimePoint{} + seconds(200));
  EXPECT_FALSE(server_.online(NodeId{1}, AppId{10}));
  EXPECT_TRUE(server_.online(NodeId{1}, AppId{20}));
}

// Uplinks are delivered on their sender's kernel, so two kernels on two
// threads deliver at the same time. Each kernel feeds its own disjoint
// sessions — half registered up front, half auto-registered on first
// contact — and the result must equal the one-thread run exactly.
// (Under ThreadSanitizer this is the race check for the strip lanes.)
ImServer::Totals deliver_from_two_kernels(std::size_t threads) {
  constexpr std::uint64_t kSessionsPerKernel = 40;
  constexpr int kBeats = 30;
  sim::Simulator sim{2};
  ImServer server{sim};
  auto beat_of = [&sim, &server](NodeId node) {
    return [&sim, &server, node] {
      server.deliver(make_heartbeat(node, AppId{node.value}, 1, Bytes{54},
                                    seconds(100), sim.now()));
    };
  };
  for (std::uint32_t kernel = 0; kernel < 2; ++kernel) {
    sim::ShardGuard guard(sim, kernel);
    for (std::uint64_t i = 0; i < kSessionsPerKernel; ++i) {
      const NodeId node{1 + kernel * kSessionsPerKernel + i};
      // Even sessions register up front and beat every 60 s; odd ones
      // auto-register on first contact and beat every 120 s against a
      // 100 s expiry, so all their later beats are late.
      const bool registered = i % 2 == 0;
      if (registered) {
        server.register_client(node, AppId{node.value}, seconds(100));
      }
      const Duration period = seconds(registered ? 60 : 120);
      for (int beat = 0; beat < kBeats; ++beat) {
        sim.schedule_at(TimePoint{} + period * beat + milliseconds(i),
                        beat_of(node));
      }
    }
  }
  sim::RunOptions options;
  options.threads = threads;
  const sim::RunStats stats =
      sim::run(sim, TimePoint{} + seconds(3600), options);
  EXPECT_EQ(stats.workers, threads);
  EXPECT_NO_THROW(sim.audit());
  EXPECT_EQ(server.session_count(), 2 * kSessionsPerKernel);
  for (std::uint64_t n = 1; n <= 2 * kSessionsPerKernel; ++n) {
    EXPECT_EQ(server.stats(NodeId{n}, AppId{n}).delivered,
              static_cast<std::uint64_t>(kBeats));
  }
  return server.totals();
}

TEST(ImServerConcurrency, TwoKernelsDeliverToDisjointSessionsAtOnce) {
  const ImServer::Totals serial = deliver_from_two_kernels(1);
  const ImServer::Totals threaded = deliver_from_two_kernels(2);
  EXPECT_EQ(serial.delivered, 2u * 40u * 30u);
  EXPECT_GT(serial.late, 0u);
  EXPECT_EQ(threaded.delivered, serial.delivered);
  EXPECT_EQ(threaded.on_time, serial.on_time);
  EXPECT_EQ(threaded.late, serial.late);
  EXPECT_EQ(threaded.offline_events, serial.offline_events);
  EXPECT_EQ(threaded.total_latency, serial.total_latency);

  // The invariant that replaces a lock: every session lives in one
  // strip lane. One session fed from both kernels lands in two lanes,
  // and the auditor says so.
  sim::Simulator sim{2};
  sim.set_audit_interval(0);  // audit by hand, not inside the run
  ImServer server{sim};
  for (std::uint32_t kernel = 0; kernel < 2; ++kernel) {
    sim::ShardGuard guard(sim, kernel);
    sim.schedule_at(TimePoint{} + seconds(1), [&sim, &server] {
      server.deliver(make_heartbeat(NodeId{7}, AppId{7}, 1, Bytes{0},
                                    seconds(100), sim.now()));
    });
  }
  sim::RunOptions options;
  options.threads = 2;
  sim::run(sim, TimePoint{} + seconds(2), options);
  EXPECT_EQ(server.totals().delivered, 2u);
  EXPECT_THROW(sim.audit(), sim::AuditError);
}

}  // namespace
}  // namespace d2dhb::net

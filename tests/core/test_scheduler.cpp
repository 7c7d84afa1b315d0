// Algorithm 1 semantics: pend while (k < M && t - t_k < T_k && t < T),
// send the moment any bound is hit.
#include "core/scheduler.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <vector>

#include "common/rng.hpp"
#include "sim/simulator.hpp"

namespace d2dhb::core {
namespace {

class SchedulerTest : public ::testing::Test {
 protected:
  MessageScheduler::Params params(std::size_t capacity = 7,
                                  double T_s = 270.0,
                                  double margin_s = 10.0) {
    MessageScheduler::Params p;
    p.capacity = capacity;
    p.max_own_delay = seconds(T_s);
    p.deadline_margin = seconds(margin_s);
    return p;
  }

  std::unique_ptr<MessageScheduler> make(MessageScheduler::Params p) {
    return std::make_unique<MessageScheduler>(
        sim_, p,
        [this](std::vector<net::HeartbeatMessage> batch, FlushReason reason) {
          flushes_.push_back({sim_.now(), std::move(batch), reason});
        });
  }

  net::HeartbeatMessage heartbeat(std::uint64_t id, double expiry_s = 270.0) {
    net::HeartbeatMessage m;
    m.id = MessageId{id};
    m.origin = NodeId{id};
    m.size = Bytes{54};
    m.expiry = seconds(expiry_s);
    m.created_at = sim_.now();
    return m;
  }

  struct Flush {
    TimePoint when;
    std::vector<net::HeartbeatMessage> batch;
    FlushReason reason;
  };

  sim::Simulator sim_;
  std::vector<Flush> flushes_;
};

TEST_F(SchedulerTest, OwnHeartbeatDelayedUntilT) {
  auto sched = make(params(7, 270.0, 10.0));
  sched->begin_window(heartbeat(1));
  EXPECT_TRUE(sched->window_open());
  sim_.run_until(TimePoint{} + seconds(1000));
  ASSERT_EQ(flushes_.size(), 1u);
  // Flush at T - margin = 260 s.
  EXPECT_EQ(flushes_[0].when, TimePoint{} + seconds(260));
  EXPECT_EQ(flushes_[0].reason, FlushReason::window_end);
  EXPECT_EQ(flushes_[0].batch.size(), 1u);
  EXPECT_FALSE(sched->window_open());
}

TEST_F(SchedulerTest, CapacityTriggersImmediateFlush) {
  auto sched = make(params(3, 270.0, 10.0));
  sched->begin_window(heartbeat(1));
  sim_.run_until(TimePoint{} + seconds(10));
  EXPECT_TRUE(sched->collect(heartbeat(2)));
  EXPECT_TRUE(sched->collect(heartbeat(3)));
  EXPECT_EQ(flushes_.size(), 0u);
  EXPECT_TRUE(sched->collect(heartbeat(4)));  // k hits M=3
  ASSERT_EQ(flushes_.size(), 1u);
  EXPECT_EQ(flushes_[0].reason, FlushReason::capacity);
  EXPECT_EQ(flushes_[0].batch.size(), 4u);  // own + 3 forwarded
  EXPECT_EQ(flushes_[0].when, TimePoint{} + seconds(10));
}

TEST_F(SchedulerTest, OwnHeartbeatComesFirstInBatch) {
  auto sched = make(params(2, 270.0, 10.0));
  sched->begin_window(heartbeat(42));
  sched->collect(heartbeat(2));
  sched->collect(heartbeat(3));
  ASSERT_EQ(flushes_.size(), 1u);
  EXPECT_EQ(flushes_[0].batch.front().id, MessageId{42});
}

TEST_F(SchedulerTest, ForwardedExpiryBeatsWindowDeadline) {
  auto sched = make(params(7, 270.0, 10.0));
  sched->begin_window(heartbeat(1));          // window flush due at 260
  sim_.run_until(TimePoint{} + seconds(50));
  sched->collect(heartbeat(2, 100.0));        // expires at 150 -> flush 140
  sim_.run_until(TimePoint{} + seconds(1000));
  ASSERT_EQ(flushes_.size(), 1u);
  EXPECT_EQ(flushes_[0].when, TimePoint{} + seconds(140));
  EXPECT_EQ(flushes_[0].reason, FlushReason::expiry);
  EXPECT_EQ(flushes_[0].batch.size(), 2u);
}

TEST_F(SchedulerTest, WindowDeadlineBeatsLaterExpiry) {
  auto sched = make(params(7, 100.0, 10.0));
  sched->begin_window(heartbeat(1));          // window flush at 90
  sched->collect(heartbeat(2, 500.0));        // would expire much later
  sim_.run_until(TimePoint{} + seconds(1000));
  ASSERT_EQ(flushes_.size(), 1u);
  EXPECT_EQ(flushes_[0].when, TimePoint{} + seconds(90));
  EXPECT_EQ(flushes_[0].reason, FlushReason::window_end);
}

TEST_F(SchedulerTest, CollectBetweenWindowsFlushesOnExpiry) {
  auto sched = make(params(7, 270.0, 10.0));
  // No window open; a forwarded heartbeat still gets a deadline.
  EXPECT_TRUE(sched->collect(heartbeat(2, 60.0)));
  sim_.run_until(TimePoint{} + seconds(1000));
  ASSERT_EQ(flushes_.size(), 1u);
  EXPECT_EQ(flushes_[0].when, TimePoint{} + seconds(50));
  EXPECT_EQ(flushes_[0].reason, FlushReason::expiry);
}

TEST_F(SchedulerTest, StrictModeRejectsBetweenWindows) {
  auto p = params();
  p.collect_between_windows = false;
  auto sched = make(p);
  EXPECT_FALSE(sched->collect(heartbeat(2)));
  EXPECT_EQ(sched->stats().rejected, 1u);
  sched->begin_window(heartbeat(1));
  EXPECT_TRUE(sched->collect(heartbeat(3)));
}

TEST_F(SchedulerTest, NewWindowFlushesPreviousOwn) {
  auto sched = make(params(7, 270.0, 10.0));
  sched->begin_window(heartbeat(1));
  sim_.run_until(TimePoint{} + seconds(100));
  sched->begin_window(heartbeat(2));  // relay's next period arrived early
  ASSERT_EQ(flushes_.size(), 1u);
  EXPECT_EQ(flushes_[0].batch.front().id, MessageId{1});
  EXPECT_TRUE(sched->window_open());
}

TEST_F(SchedulerTest, FlushNowForcesEverythingOut) {
  auto sched = make(params());
  sched->begin_window(heartbeat(1));
  sched->collect(heartbeat(2));
  sched->flush_now();
  ASSERT_EQ(flushes_.size(), 1u);
  EXPECT_EQ(flushes_[0].reason, FlushReason::forced);
  EXPECT_EQ(flushes_[0].batch.size(), 2u);
  EXPECT_EQ(sched->buffered(), 0u);
  // Nothing further fires.
  sim_.run_until(TimePoint{} + seconds(1000));
  EXPECT_EQ(flushes_.size(), 1u);
}

TEST_F(SchedulerTest, FlushNowOnEmptyIsNoOp) {
  auto sched = make(params());
  sched->flush_now();
  EXPECT_TRUE(flushes_.empty());
  EXPECT_EQ(sched->stats().flushes(), 0u);
}

TEST_F(SchedulerTest, RemainingCapacityTracksBuffer) {
  auto sched = make(params(3));
  EXPECT_EQ(sched->remaining_capacity(), 3u);
  sched->begin_window(heartbeat(1));
  EXPECT_EQ(sched->remaining_capacity(), 3u);  // own doesn't count toward M
  sched->collect(heartbeat(2));
  EXPECT_EQ(sched->remaining_capacity(), 2u);
}

TEST_F(SchedulerTest, NextDeadlineIsMinimum) {
  auto sched = make(params(7, 270.0, 10.0));
  sched->begin_window(heartbeat(1));
  sched->collect(heartbeat(2, 120.0));
  sched->collect(heartbeat(3, 80.0));
  ASSERT_TRUE(sched->next_deadline().has_value());
  EXPECT_EQ(*sched->next_deadline(), TimePoint{} + seconds(80));
}

TEST_F(SchedulerTest, StatsAccounting) {
  auto sched = make(params(2, 270.0, 10.0));
  sched->begin_window(heartbeat(1));
  sched->collect(heartbeat(2));
  sched->collect(heartbeat(3));  // capacity flush: 3 messages
  sched->begin_window(heartbeat(4));
  sim_.run_until(TimePoint{} + seconds(1000));  // window flush: 1 message
  const auto s = sched->stats();
  EXPECT_EQ(s.windows, 2u);
  EXPECT_EQ(s.collected, 2u);
  EXPECT_EQ(s.flushes(), 2u);
  EXPECT_EQ(s.flushed_messages, 4u);
  EXPECT_DOUBLE_EQ(s.mean_bundle_size(), 2.0);
  EXPECT_EQ(s.flushes(FlushReason::capacity), 1u);
  EXPECT_EQ(s.flushes(FlushReason::window_end), 1u);
}

TEST_F(SchedulerTest, ImminentDeadlineFlushesWithoutGoingNegative) {
  auto sched = make(params(7, 270.0, 10.0));
  // Expiry (5 s) shorter than the margin (10 s): fires immediately-ish.
  sched->collect(heartbeat(2, 5.0));
  sim_.run_until(TimePoint{} + seconds(6));
  ASSERT_EQ(flushes_.size(), 1u);
  EXPECT_LE(flushes_[0].when, TimePoint{} + seconds(5));
}

TEST_F(SchedulerTest, RejectsInvalidParams) {
  MessageScheduler::Params bad = params();
  bad.capacity = 0;
  EXPECT_THROW(make(bad), std::invalid_argument);
  bad = params();
  bad.max_own_delay = Duration::zero();
  EXPECT_THROW(make(bad), std::invalid_argument);
  bad = params();
  bad.deadline_margin = seconds(-1);
  EXPECT_THROW(make(bad), std::invalid_argument);
}

TEST_F(SchedulerTest, CapacityOneDegeneratesToImmediateForwarding) {
  auto sched = make(params(1, 270.0, 10.0));
  EXPECT_TRUE(sched->collect(heartbeat(1)));
  ASSERT_EQ(flushes_.size(), 1u);
  EXPECT_EQ(flushes_[0].reason, FlushReason::capacity);
  EXPECT_EQ(flushes_[0].when, sim_.now());
}

TEST_F(SchedulerTest, ReasonNamesAreStable) {
  EXPECT_STREQ(to_string(FlushReason::capacity), "capacity");
  EXPECT_STREQ(to_string(FlushReason::expiry), "expiry");
  EXPECT_STREQ(to_string(FlushReason::window_end), "window_end");
  EXPECT_STREQ(to_string(FlushReason::forced), "forced");
}

// Property sweep: for any capacity and expiry mix, no buffered message is
// ever flushed after its deadline, and every collected message is flushed
// exactly once.
class SchedulerPropertyTest : public SchedulerTest,
                              public ::testing::WithParamInterface<int> {};

TEST_P(SchedulerPropertyTest, NeverFlushesPastDeadlineAndNeverLoses) {
  Rng rng{static_cast<std::uint64_t>(GetParam())};
  const std::size_t capacity = 2 + rng.uniform_int(0, 6);
  auto sched = make(params(capacity, 270.0, 10.0));

  std::vector<net::HeartbeatMessage> injected;
  std::uint64_t next_id = 1;
  // Relay periods with random forwarded arrivals.
  for (int window = 0; window < 5; ++window) {
    auto own = heartbeat(next_id++);
    injected.push_back(own);
    sched->begin_window(own);
    const int arrivals = static_cast<int>(rng.uniform_int(0, 9));
    for (int i = 0; i < arrivals; ++i) {
      sim_.run_until(sim_.now() + seconds(rng.uniform(1.0, 40.0)));
      auto m = heartbeat(next_id++, rng.uniform(60.0, 400.0));
      if (sched->collect(m)) injected.push_back(m);
    }
    sim_.run_until(TimePoint{} + seconds(270.0 * (window + 1)));
  }
  sim_.run_until(sim_.now() + seconds(600));

  std::set<std::uint64_t> flushed_ids;
  for (const auto& flush : flushes_) {
    for (const auto& m : flush.batch) {
      EXPECT_TRUE(flushed_ids.insert(m.id.value).second)
          << "message flushed twice";
      EXPECT_LE(flush.when, m.deadline()) << "flushed after deadline";
    }
  }
  EXPECT_EQ(flushed_ids.size(), injected.size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, SchedulerPropertyTest,
                         ::testing::Range(1, 21));

}  // namespace
}  // namespace d2dhb::core

#include "sim/event_kernel.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

namespace d2dhb::sim {
namespace {

TEST(EventKernel, StartsEmptyAtEpoch) {
  EventKernel kernel;
  EXPECT_EQ(kernel.now(), TimePoint{});
  EXPECT_EQ(kernel.shard(), 0u);
  EXPECT_EQ(kernel.executed_events(), 0u);
  EXPECT_EQ(kernel.pending_events(), 0u);
  EXPECT_FALSE(kernel.peek().has_value());
  EXPECT_FALSE(kernel.step());
}

TEST(EventKernel, ExecutesInTimeOrderThenFifo) {
  EventKernel kernel;
  std::vector<int> order;
  kernel.schedule_after(seconds(2), [&] { order.push_back(2); });
  kernel.schedule_after(seconds(1), [&] { order.push_back(1); });
  kernel.schedule_after(seconds(1), [&] { order.push_back(10); });
  kernel.run();
  EXPECT_EQ(order, (std::vector<int>{1, 10, 2}));
  EXPECT_EQ(kernel.now(), TimePoint{} + seconds(2));
  EXPECT_EQ(kernel.executed_events(), 3u);
}

TEST(EventKernel, PendingAccountingTracksScheduleFireCancel) {
  EventKernel kernel;
  const EventId a = kernel.schedule_after(seconds(1), [] {});
  const EventId b = kernel.schedule_after(seconds(2), [] {});
  EXPECT_EQ(kernel.pending_events(), 2u);

  EXPECT_TRUE(kernel.cancel(a));
  EXPECT_EQ(kernel.pending_events(), 1u);
  // Cancel is idempotent and does not double-decrement.
  EXPECT_FALSE(kernel.cancel(a));
  EXPECT_EQ(kernel.pending_events(), 1u);

  EXPECT_TRUE(kernel.step());
  EXPECT_EQ(kernel.pending_events(), 0u);
  EXPECT_EQ(kernel.executed_events(), 1u);
  // Fired events cannot be cancelled retroactively.
  EXPECT_FALSE(kernel.cancel(b));
  kernel.audit();
}

TEST(EventKernel, CancelledEventNeverRuns) {
  EventKernel kernel;
  bool ran = false;
  const EventId id = kernel.schedule_after(seconds(1), [&] { ran = true; });
  EXPECT_TRUE(kernel.cancel(id));
  kernel.run();
  EXPECT_FALSE(ran);
  EXPECT_EQ(kernel.executed_events(), 0u);
}

TEST(EventKernel, SlotReuseInvalidatesStaleHandles) {
  EventKernel kernel;
  const EventId first = kernel.schedule_after(seconds(1), [] {});
  kernel.run();
  // The slot is recycled under a new generation; the old handle must
  // not cancel the new tenant.
  bool ran = false;
  const EventId second = kernel.schedule_after(seconds(1), [&] { ran = true; });
  EXPECT_NE(first.value, second.value);
  EXPECT_FALSE(kernel.cancel(first));
  kernel.run();
  EXPECT_TRUE(ran);
}

TEST(EventKernel, ShardIdBakedIntoHandles) {
  EventKernel kernel{7};
  const EventId id = kernel.schedule_after(seconds(1), [] {});
  EXPECT_EQ((id.value >> 32) & 0xffu, 7u);
  // A kernel refuses handles minted by another shard.
  EventKernel other{3};
  const EventId foreign = other.schedule_after(seconds(1), [] {});
  EXPECT_FALSE(kernel.cancel(foreign));
  EXPECT_EQ(other.pending_events(), 1u);
}

TEST(EventKernel, PeekRetiresTombstonesAndMatchesStep) {
  EventKernel kernel;
  const EventId doomed = kernel.schedule_after(seconds(1), [] {});
  bool ran = false;
  kernel.schedule_after(seconds(2), [&] { ran = true; });
  kernel.cancel(doomed);
  // peek() must skip the cancelled head and report the live event...
  const auto head = kernel.peek();
  ASSERT_TRUE(head.has_value());
  EXPECT_EQ(head->when, TimePoint{} + seconds(2));
  // ...and step() then executes exactly that entry.
  EXPECT_TRUE(kernel.step());
  EXPECT_TRUE(ran);
  EXPECT_EQ(kernel.now(), TimePoint{} + seconds(2));
}

TEST(EventKernel, RejectsPastAndInvalid) {
  EventKernel kernel;
  kernel.schedule_after(seconds(5), [] {});
  kernel.run();
  EXPECT_THROW(kernel.schedule_at(TimePoint{} + seconds(1), [] {}),
               std::invalid_argument);
  EXPECT_THROW(kernel.schedule_after(seconds(-1), [] {}),
               std::invalid_argument);
  EXPECT_THROW(kernel.schedule_after(seconds(1), nullptr),
               std::invalid_argument);
  EXPECT_FALSE(kernel.cancel(EventId{}));
}

TEST(EventKernel, SeqBlockIsTheLaneDrawsInOrder) {
  EventKernel kernel(2);
  kernel.set_seq_lane(2, 3);
  EXPECT_EQ(kernel.reserve_seq(), 2u);
  const EventKernel::SeqBlock block = kernel.reserve_seqs(4);
  EXPECT_EQ(block.first, 5u);
  EXPECT_EQ(block.stride, 3u);
  // The block took draws 5, 8, 11 and 14; the next draw is 17.
  EXPECT_EQ(kernel.reserve_seq(), 17u);
  EXPECT_EQ(kernel.reserve_seqs(0).first, 20u);
  EXPECT_EQ(kernel.reserve_seq(), 20u);
}

TEST(EventKernel, RunUntilAdvancesIdleClock) {
  EventKernel kernel;
  bool ran = false;
  kernel.schedule_after(seconds(1), [&] { ran = true; });
  kernel.run_until(TimePoint{} + seconds(10));
  EXPECT_TRUE(ran);
  EXPECT_EQ(kernel.now(), TimePoint{} + seconds(10));
  kernel.advance_to(TimePoint{} + seconds(20));
  EXPECT_EQ(kernel.now(), TimePoint{} + seconds(20));
  EXPECT_THROW(kernel.advance_to(TimePoint{} + seconds(5)),
               std::invalid_argument);
}

TEST(EventKernel, AuditPassesThroughChurn) {
  EventKernel kernel;
  std::vector<EventId> ids;
  for (int round = 0; round < 20; ++round) {
    for (int i = 0; i < 10; ++i) {
      ids.push_back(
          kernel.schedule_after(seconds(1 + (round + i) % 7), [] {}));
    }
    // Cancel every third handle, fire a few, audit after each phase.
    for (std::size_t i = 0; i < ids.size(); i += 3) kernel.cancel(ids[i]);
    kernel.audit();
    kernel.step();
    kernel.step();
    kernel.audit();
  }
}

TEST(EventKernel, AuditDetectsCorruptedGeneration) {
  EventKernel kernel;
  const EventId id = kernel.schedule_after(seconds(1), [] {});
  kernel.debug_corrupt_slot_generation(
      static_cast<std::uint32_t>(id.value & 0xffffffffu));
  EXPECT_THROW(kernel.audit(), AuditError);
}

}  // namespace
}  // namespace d2dhb::sim

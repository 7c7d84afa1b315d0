#include "sim/event_kernel.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

namespace d2dhb::sim {

namespace {
constexpr std::uint64_t make_id(std::uint32_t slot, std::uint32_t shard,
                                std::uint32_t gen) {
  return (static_cast<std::uint64_t>(gen) << 40) |
         (static_cast<std::uint64_t>(shard) << 32) | slot;
}
constexpr std::uint32_t id_slot(std::uint64_t value) {
  return static_cast<std::uint32_t>(value & 0xffffffffu);
}
constexpr std::uint32_t id_shard(std::uint64_t value) {
  return static_cast<std::uint32_t>((value >> 32) & 0xffu);
}
constexpr std::uint32_t id_gen(std::uint64_t value) {
  return static_cast<std::uint32_t>(value >> 40);
}
}  // namespace

EventKernel::EventKernel(std::uint32_t shard) : shard_(shard) {
  if (shard >= kMaxShards) {
    throw std::invalid_argument("EventKernel: shard id exceeds " +
                                std::to_string(kMaxShards - 1));
  }
}

void EventKernel::push_entry(Scheduled entry) {
  heap_.push_back(entry);
  std::push_heap(heap_.begin(), heap_.end(), Later{});
}

EventKernel::Scheduled EventKernel::pop_entry() {
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  const Scheduled entry = heap_.back();
  heap_.pop_back();
  return entry;
}

EventId EventKernel::schedule_entry(TimePoint t, std::uint64_t seq,
                                    Callback fn) {
  if (!fn) {
    throw std::invalid_argument("EventKernel: null callback");
  }
  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  Slot& s = slots_[slot];
  assert(!s.armed);
  s.fn = std::move(fn);
  s.armed = true;
  push_entry(Scheduled{t, seq, slot});
  ++live_;
  return EventId{make_id(slot, shard_, s.gen)};
}

void EventKernel::set_seq_lane(std::uint64_t start, std::uint64_t stride) {
  if (stride == 0) {
    throw std::invalid_argument("EventKernel::set_seq_lane: zero stride");
  }
  if (next_seq_ != 0 || executed_ != 0 || !heap_.empty()) {
    throw std::logic_error(
        "EventKernel::set_seq_lane: kernel has already drawn sequence "
        "numbers");
  }
  next_seq_ = start;
  seq_stride_ = stride;
}

std::uint64_t EventKernel::draw_seq() {
  const std::uint64_t seq = next_seq_;
  next_seq_ += seq_stride_;
  return seq;
}

EventId EventKernel::schedule_at(TimePoint t, Callback fn) {
  if (t < now_) {
    throw std::invalid_argument("EventKernel::schedule_at: time in the past");
  }
  return schedule_entry(t, draw_seq(), std::move(fn));
}

EventId EventKernel::schedule_after(Duration delay, Callback fn) {
  if (delay < Duration::zero()) {
    throw std::invalid_argument("EventKernel::schedule_after: negative delay");
  }
  return schedule_at(now_ + delay, std::move(fn));
}

bool EventKernel::cancel(EventId id) {
  if (id_shard(id.value) != shard_) return false;
  const std::uint32_t slot = id_slot(id.value);
  if (slot >= slots_.size()) return false;
  Slot& s = slots_[slot];
  if (s.gen != id_gen(id.value) || !s.armed) return false;
  // Disarm and drop the callback now (releasing its captures); the heap
  // entry stays behind as a tombstone until it reaches the top.
  s.armed = false;
  s.fn = nullptr;
  --live_;
  return true;
}

void EventKernel::retire(std::uint32_t slot) {
  Slot& s = slots_[slot];
  s.gen = (s.gen + 1) & kGenMask;
  if (s.gen == 0) s.gen = 1;
  free_slots_.push_back(slot);
}

std::optional<EventKernel::Head> EventKernel::peek() {
  while (!heap_.empty()) {
    const Scheduled& top = heap_.front();
    if (!slots_[top.slot].armed) {  // Cancelled: retire, keep scanning.
      const Scheduled popped = pop_entry();
      retire(popped.slot);
      continue;
    }
    return Head{top.when, top.seq};
  }
  return std::nullopt;
}

bool EventKernel::step() {
  while (!heap_.empty()) {
    const Scheduled top = pop_entry();
    Slot& s = slots_[top.slot];
    if (!s.armed) {  // Cancelled: recycle the slot, keep scanning.
      retire(top.slot);
      continue;
    }
    Callback fn = std::move(s.fn);
    s.fn = nullptr;
    s.armed = false;
    retire(top.slot);
    assert(top.when >= now_);
    now_ = top.when;
    ++executed_;
    --live_;
    executing_seq_ = top.seq;
    struct Finished {  // between events again, even if fn throws
      std::uint64_t& seq;
      ~Finished() { seq = UINT64_MAX; }
    } finished{executing_seq_};
    fn();
    return true;
  }
  return false;
}

void EventKernel::run(std::uint64_t max_events) {
  for (std::uint64_t i = 0; i < max_events; ++i) {
    if (!step()) return;
  }
}

void EventKernel::run_until(TimePoint t) {
  while (const auto head = peek()) {
    if (head->when > t) break;
    step();
  }
  advance_to(t);
}

void EventKernel::advance_to(TimePoint t) {
  if (t < now_) {
    throw std::invalid_argument("EventKernel::advance_to: time in the past");
  }
  now_ = t;
}

void EventKernel::debug_corrupt_slot_generation(std::uint32_t slot) {
  if (slot < slots_.size()) slots_[slot].gen = 0;
}

namespace {
[[noreturn]] void audit_fail(const std::string& what) {
  throw AuditError("EventKernel audit: " + what);
}
}  // namespace

void EventKernel::audit() const {
  // 1. Slot table: generations valid, armed <=> callback present.
  std::size_t armed = 0;
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    const Slot& s = slots_[i];
    if (s.gen == 0 || s.gen > kGenMask) {
      audit_fail("slot " + std::to_string(i) +
                 " has generation outside [1, 2^24) — generations start "
                 "at 1 and wrap inside the 24-bit field");
    }
    if (s.armed && !s.fn) {
      audit_fail("armed slot " + std::to_string(i) + " has no callback");
    }
    if (!s.armed && s.fn) {
      audit_fail("disarmed slot " + std::to_string(i) +
                 " still holds a callback");
    }
    if (s.armed) ++armed;
  }
  if (armed != live_) {
    audit_fail("armed slot count " + std::to_string(armed) +
               " != live event count " + std::to_string(live_));
  }

  // 2. Heap: ordering property holds, every entry references a valid
  //    slot exactly once, armed slots all have their entry in the heap.
  if (!std::is_heap(heap_.begin(), heap_.end(), Later{})) {
    audit_fail("event heap violates the heap ordering property");
  }
  std::vector<std::uint8_t> heap_refs(slots_.size(), 0);
  for (const Scheduled& e : heap_) {
    if (e.slot >= slots_.size()) {
      audit_fail("heap entry references out-of-range slot " +
                 std::to_string(e.slot));
    }
    if (e.seq >= next_seq_) {
      audit_fail("heap entry for slot " + std::to_string(e.slot) +
                 " has sequence number from the future");
    }
    if (heap_refs[e.slot]++ != 0) {
      audit_fail("slot " + std::to_string(e.slot) +
                 " appears more than once in the heap");
    }
    if (slots_[e.slot].armed && e.when < now_) {
      audit_fail("armed heap entry for slot " + std::to_string(e.slot) +
                 " is scheduled in the past");
    }
  }
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    if (slots_[i].armed && heap_refs[i] == 0) {
      audit_fail("armed slot " + std::to_string(i) + " has no heap entry");
    }
  }

  // 3. Free list: in-range, unique, disarmed, and not referenced by the
  //    heap (a slot is only retired once its heap entry was popped).
  std::vector<std::uint8_t> freed(slots_.size(), 0);
  for (const std::uint32_t slot : free_slots_) {
    if (slot >= slots_.size()) {
      audit_fail("free list references out-of-range slot " +
                 std::to_string(slot));
    }
    if (freed[slot]++ != 0) {
      audit_fail("slot " + std::to_string(slot) +
                 " appears more than once in the free list");
    }
    if (slots_[slot].armed) {
      audit_fail("free-listed slot " + std::to_string(slot) + " is armed");
    }
    if (heap_refs[slot] != 0) {
      audit_fail("free-listed slot " + std::to_string(slot) +
                 " still has a heap entry");
    }
  }
}

}  // namespace d2dhb::sim

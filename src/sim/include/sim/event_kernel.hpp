// Event kernel: the slot/generation/heap machinery of the discrete-event
// core, extracted from the world context (sim::Simulator) so a sharded
// world can run several independent kernels side by side.
//
// One kernel is one totally ordered event stream: callbacks live in a
// flat slot array indexed by the heap entries, with a per-slot
// generation counter detecting stale handles. Cancellation disarms the
// slot in O(1) and leaves the heap entry behind; step() retires such
// tombstones lazily when they surface at the top. schedule / cancel /
// step therefore do no hashing — this is the hot path of every
// experiment, and crowd-scale sweeps hammer it with millions of
// schedule/cancel pairs (feedback timers, RRC timers).
//
// Sharding hooks (all optional; a default-constructed kernel behaves
// exactly like the pre-split Simulator core):
//  * a shard id baked into every EventId it issues, so the owning world
//    can route cancellations back to the right kernel;
//  * a sequence *lane* (set_seq_lane): kernel k of V draws seq k, k+V,
//    k+2V, ... from its own counter, so events scheduled across V
//    kernels stay globally totally ordered by (time, seq) without any
//    cross-thread traffic — the property the sharded executor's
//    byte-identical contract rests on;
//  * peek(), which exposes the head (time, seq) for the world-level
//    merge-step (Simulator::step), the global-order reference.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/units.hpp"

namespace d2dhb::sim {

/// Handle for cancelling a scheduled event. Encodes slot index (low 32
/// bits), the issuing kernel's shard id (bits 32..39), and the slot
/// generation (top 24 bits); generations start at 1, so a valid handle
/// is never zero. The 24-bit generation wraps after ~16.7M reuses of
/// one slot (skipping 0); handles are short-lived (timers cancelled
/// within a few heartbeat periods), so a wrap-around collision would
/// need a handle held across 16.7M reuses of its own slot.
struct EventId {
  std::uint64_t value{0};
  constexpr auto operator<=>(const EventId&) const = default;
  constexpr bool valid() const { return value != 0; }
};

/// Thrown when an invariant audit fails (see EventKernel::audit() and
/// Simulator::audit()). The message names the violated invariant and
/// the offending slot/entry.
struct AuditError : std::logic_error {
  explicit AuditError(const std::string& what) : std::logic_error(what) {}
};

class EventKernel {
 public:
  using Callback = std::function<void()>;

  static constexpr std::uint32_t kGenBits = 24;
  static constexpr std::uint32_t kGenMask = (1u << kGenBits) - 1u;
  static constexpr std::uint32_t kMaxShards = 256;

  /// `shard` is baked into issued EventIds.
  explicit EventKernel(std::uint32_t shard = 0);

  EventKernel(const EventKernel&) = delete;
  EventKernel& operator=(const EventKernel&) = delete;

  std::uint32_t shard() const { return shard_; }

  /// Restricts this kernel's sequence draws to the lane
  /// {start, start + stride, start + 2*stride, ...}. With one lane per
  /// kernel (start = k, stride = V) draws are globally unique, which is
  /// what lets kernels draw concurrently from worker threads. Only
  /// valid on a kernel that has not scheduled or executed anything yet.
  /// stride 1 / start 0 is the default single-kernel behaviour.
  void set_seq_lane(std::uint64_t start, std::uint64_t stride);

  /// Current kernel-local time. In a sharded world this lags the world
  /// clock between this kernel's events; it never runs ahead of it.
  TimePoint now() const { return now_; }

  /// Schedules `fn` at absolute time `t` (must be >= now()).
  EventId schedule_at(TimePoint t, Callback fn);

  /// Schedules `fn` after `delay` (must be >= 0).
  EventId schedule_after(Duration delay, Callback fn);

  /// Cancels a pending event. Safe to call for already-fired or
  /// already-cancelled events; returns whether it was still pending.
  /// Ids minted by a different kernel (shard mismatch) are rejected.
  bool cancel(EventId id);

  /// Draws the sequence number an event scheduled right now would get,
  /// without scheduling anything. Lets a substrate rank a computed
  /// state change among the events of its instant exactly as if it had
  /// been scheduled (energy::EnergyMeter's pending steps).
  std::uint64_t reserve_seq() { return draw_seq(); }

  /// Draws `count` sequence numbers in one go, exactly the ones `count`
  /// reserve_seq() calls would return: draw j is first + j * stride.
  struct SeqBlock {
    std::uint64_t first;
    std::uint64_t stride;  ///< This kernel's lane stride.
  };
  SeqBlock reserve_seqs(std::uint64_t count) {
    const SeqBlock block{next_seq_, seq_stride_};
    next_seq_ += count * seq_stride_;
    return block;
  }

  /// Sequence number of the event executing right now, or UINT64_MAX
  /// between events (everything reserved for now() then lies before).
  std::uint64_t executing_seq() const { return executing_seq_; }

  /// The earliest armed entry's (when, seq), or nullopt when drained.
  /// Retires any cancelled tombstones found on the way, so a returned
  /// head is always live and step() will execute exactly that entry.
  struct Head {
    TimePoint when;
    std::uint64_t seq;
  };
  std::optional<Head> peek();

  /// Executes the next event, advancing time. Returns false if the
  /// queue was empty.
  bool step();

  /// Runs until the queue drains or `max_events` have executed.
  void run(std::uint64_t max_events = UINT64_MAX);

  /// Runs events with time <= `t`, then advances the clock to exactly
  /// `t` (so idle intervals at the end of a run are accounted for).
  void run_until(TimePoint t);

  /// Clock-only advance to `t` (>= now()); used by the world context to
  /// close out a time window on an idle kernel.
  void advance_to(TimePoint t);

  std::uint64_t executed_events() const { return executed_; }
  /// Number of live (scheduled, not yet fired or cancelled) events.
  std::size_t pending_events() const { return live_; }

  /// Re-derives the kernel's bookkeeping from scratch and throws
  /// AuditError on any mismatch: slot/heap cross-references, armed
  /// counts vs live_, generation validity, free-list integrity, and
  /// the heap ordering property.
  void audit() const;

  /// Test-only: zeroes a slot's generation counter so audit() trips its
  /// "generation must be non-zero" invariant. Never call outside tests.
  void debug_corrupt_slot_generation(std::uint32_t slot);

 private:
  struct Scheduled {
    TimePoint when;
    std::uint64_t seq;   ///< Tie-breaker: FIFO within the same instant.
    std::uint32_t slot;  ///< Index into slots_.
  };
  struct Later {
    bool operator()(const Scheduled& a, const Scheduled& b) const {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;
    }
  };
  struct Slot {
    Callback fn;
    std::uint32_t gen{1};
    bool armed{false};
  };

  /// Bumps the slot generation (invalidating outstanding EventIds) and
  /// returns it to the free list. Only called once the slot's heap
  /// entry has been popped — a slot is never recycled while an entry
  /// for it is still in the heap, which is what makes stale-handle
  /// detection work.
  void retire(std::uint32_t slot);

  std::uint64_t draw_seq();
  EventId schedule_entry(TimePoint t, std::uint64_t seq, Callback fn);
  void push_entry(Scheduled entry);
  Scheduled pop_entry();

  std::uint32_t shard_;
  TimePoint now_{};
  std::uint64_t next_seq_{0};  ///< Next draw of this kernel's lane.
  std::uint64_t seq_stride_{1};  ///< Lane stride (1 = every number).
  std::uint64_t executed_{0};
  std::uint64_t executing_seq_{UINT64_MAX};
  std::size_t live_{0};
  /// Binary heap managed with std::push_heap/pop_heap (the same
  /// algorithms std::priority_queue uses, so ordering is identical);
  /// kept as a plain vector so audit() can walk the entries.
  std::vector<Scheduled> heap_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
};

}  // namespace d2dhb::sim

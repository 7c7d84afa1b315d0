// Low-overhead runtime span recording — the substrate of the engine
// profiler (sim/profiler.hpp). A SpanBuffer is owned by exactly one
// thread for the duration of a run: appends are plain vector pushes
// with no locks or atomics, and the per-buffer sequence number makes
// the merged record order deterministic even though the timestamps
// are wall-clock. ScopedSpan is the RAII recording primitive: it
// stamps begin on construction and records the span on destruction,
// so a span closes correctly on every exit path, exceptions included.
//
// Wall-clock discipline: everything here measures HOST time and lives
// strictly outside the simulation. Nothing read from a SpanRecord may
// ever feed back into event scheduling, RNG draws, or any other
// sim-visible state — that is what keeps profiled runs byte-identical
// to unprofiled ones (the profile-equivalence gate holds us to it).
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace d2dhb {

/// What one span measured. The engine emits one kind per
/// instrumentation site; tools key their per-phase breakdowns on it.
enum class SpanKind : std::uint8_t {
  window,        ///< One engine round, start to join (main thread).
  execute,       ///< One kernel advanced to the round's target.
  barrier_wait,  ///< A worker idle from its last kernel to the join.
};

const char* to_string(SpanKind kind);

/// Monotonic host-time shim for the profiling layer. The simulation
/// itself never reads host clocks — this exists only so span begin/end
/// stamps survive NTP steps and are comparable across threads.
inline std::uint64_t trace_now_ns() {
  // detlint: allow(wall-clock): runtime profiling measures host time
  // by design; span timestamps never feed back into sim-visible state
  // (the profile-equivalence gate proves profiled runs byte-identical).
  const auto now = std::chrono::steady_clock::now().time_since_epoch();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(now).count());
}

/// One closed span. `seq` is the position within the recording
/// buffer (per-thread monotone), `payload` a kind-specific count:
/// events executed for execute, the round index for window and
/// barrier_wait.
struct SpanRecord {
  static constexpr std::uint32_t kNoShard = 0xffffffffu;

  SpanKind kind{SpanKind::execute};
  std::uint32_t worker{0};
  std::uint32_t shard{kNoShard};
  std::uint64_t seq{0};
  std::uint64_t begin_ns{0};
  std::uint64_t end_ns{0};
  std::uint64_t payload{0};

  std::uint64_t duration_ns() const {
    return end_ns >= begin_ns ? end_ns - begin_ns : 0;
  }
};

/// Append-only span store owned by one thread. No internal locking:
/// the owner is the only writer while a run is live, and readers (the
/// profiler's merge) only look after the owning thread has passed its
/// final barrier.
class SpanBuffer {
 public:
  explicit SpanBuffer(std::uint32_t worker = 0) : worker_(worker) {
    spans_.reserve(kInitialCapacity);
  }

  std::uint32_t worker() const { return worker_; }

  /// Stamps the buffer's identity onto the record and appends it.
  void push(SpanRecord record) {
    record.worker = worker_;
    record.seq = seq_++;
    spans_.push_back(record);
  }

  const std::vector<SpanRecord>& spans() const { return spans_; }
  std::size_t size() const { return spans_.size(); }
  void clear() {
    spans_.clear();
    seq_ = 0;
  }

 private:
  static constexpr std::size_t kInitialCapacity = 1024;

  std::uint32_t worker_{0};
  std::uint64_t seq_{0};
  std::vector<SpanRecord> spans_;
};

/// RAII span: stamps begin at construction, records at destruction —
/// the record lands even when the scope unwinds through an exception.
/// A null buffer makes every operation a no-op, so instrumentation
/// sites pay one branch when profiling is off.
class ScopedSpan {
 public:
  ScopedSpan(SpanBuffer* buffer, SpanKind kind,
             std::uint32_t shard = SpanRecord::kNoShard)
      : buffer_(buffer) {
    if (buffer_ == nullptr) return;
    record_.kind = kind;
    record_.shard = shard;
    record_.begin_ns = trace_now_ns();
  }

  ~ScopedSpan() { close(); }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Kind-specific count carried on the record (see SpanRecord).
  void set_payload(std::uint64_t payload) { record_.payload = payload; }

  /// Records the span now instead of at scope exit. Idempotent.
  void close() noexcept {
    if (buffer_ == nullptr) return;
    record_.end_ns = trace_now_ns();
    buffer_->push(record_);
    buffer_ = nullptr;
  }

 private:
  SpanBuffer* buffer_{nullptr};
  SpanRecord record_;
};

inline const char* to_string(SpanKind kind) {
  switch (kind) {
    case SpanKind::window:
      return "window";
    case SpanKind::execute:
      return "execute";
    case SpanKind::barrier_wait:
      return "barrier-wait";
  }
  return "unknown";
}

}  // namespace d2dhb

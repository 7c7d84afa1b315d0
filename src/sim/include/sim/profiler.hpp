// Engine run profiler — aggregates the per-worker span buffers
// (common/trace_span.hpp) a profiled sim::run() fills, into:
//   * a ProfileSummary (per-shard busy time, barrier-wait percentiles,
//     round utilization, load-imbalance ratio),
//   * `runtime/` entries in the world's metrics registry (excluded
//     from the deterministic exporters — metrics/export.hpp),
//   * a Chrome trace-event JSON file loadable in Perfetto or
//     chrome://tracing (one track per worker, one per shard).
//
// Threading contract: begin_run() allocates one SpanBuffer per worker
// plus one for the main thread; each buffer is then written by exactly
// one thread with no synchronization. end_run() merges the buffers in
// deterministic (worker, seq) order — it may only be called after the
// workers have been joined (the join is the happens-before edge that
// publishes every worker's appends to the merging thread).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "common/trace_span.hpp"

namespace d2dhb::metrics {
class MetricsRegistry;
}

namespace d2dhb::sim {

/// What a profiled run measured, in host time. Every field here is
/// wall-clock-derived and legitimately nondeterministic — it lives in
/// RunStats and the `runtime/` registry namespace, never in the
/// deterministic export.
struct ProfileSummary {
  /// False for unprofiled runs — every other field is then zero.
  bool enabled{false};
  std::size_t workers{0};
  /// Rounds (window spans) of the run.
  std::uint64_t windows{0};
  /// Full sim::run wall time, begin_run to end_run.
  std::uint64_t wall_ns{0};
  /// Sum of round spans.
  std::uint64_t windowed_ns{0};
  /// Always 0: the engine has neither a serial tail nor a drain
  /// phase. Kept only for the repo benchmark's reader; drop them with
  /// the next benchmark change.
  std::uint64_t serial_tail_ns{0};
  std::uint64_t drain_ns{0};
  /// Phase totals summed across workers.
  std::uint64_t execute_ns{0};
  std::uint64_t barrier_wait_ns{0};
  /// Per-shard execute time / executed events over the run.
  std::vector<std::uint64_t> shard_busy_ns;
  std::vector<std::uint64_t> shard_events;
  /// Individual barrier waits (one per worker per threaded round), as
  /// a distribution.
  std::uint64_t barrier_waits{0};
  double barrier_wait_p50_us{0.0};
  double barrier_wait_p90_us{0.0};
  double barrier_wait_p99_us{0.0};
  double barrier_wait_max_us{0.0};
  /// max / mean over per-shard busy time (1.0 = perfectly balanced,
  /// 0.0 when no shard recorded busy time).
  double load_imbalance{0.0};
  /// execute / (workers × round wall) — the fraction of the rounds
  /// workers spent executing kernels rather than waiting at the join.
  double window_utilization{0.0};
};

/// Span recorder for one engine run. Create one (or let RunOptions
/// profile=true make an engine-internal one), pass it via
/// RunOptions::profiler, then read summarize()/write_chrome_trace()
/// after sim::run returns.
class Profiler {
 public:
  Profiler();
  ~Profiler();

  Profiler(const Profiler&) = delete;
  Profiler& operator=(const Profiler&) = delete;

  /// Arms the recorder: one buffer per worker plus one for the main
  /// thread. Re-arming discards the previous run's spans.
  void begin_run(std::size_t workers, std::size_t shards);

  /// Buffer for worker `worker` (0..workers-1; worker 0 is the
  /// caller's thread running kernels); index `workers` holds the
  /// caller's round spans. Null until begin_run.
  SpanBuffer* buffer(std::size_t worker);
  SpanBuffer* main_buffer() { return buffer(workers_); }

  /// Stamps the run end and merges every buffer in (worker, seq)
  /// order. Call only after the workers have been joined.
  void end_run();

  bool finished() const { return finished_; }
  std::size_t workers() const { return workers_; }
  std::size_t shards() const { return shards_; }
  /// Host time of begin_run — trace timestamps are relative to it.
  std::uint64_t origin_ns() const { return begin_ns_; }
  /// Merged records in (worker, seq) order; empty before end_run.
  const std::vector<SpanRecord>& spans() const { return merged_; }

  ProfileSummary summarize() const;

  /// Writes the summary into `registry` under the `runtime/` name
  /// prefix — the namespace metrics::export_json deliberately skips
  /// (wall-clock data must never enter the byte-identical export).
  void publish(metrics::MetricsRegistry& registry) const;

  /// Chrome trace-event JSON ("traceEvents" array of ph:"X" complete
  /// events, µs timestamps): pid 1 carries one track per worker (plus
  /// the main thread), pid 2 one track per shard — execute spans
  /// appear on both, so Perfetto shows the run from either side.
  void write_chrome_trace(std::ostream& os) const;
  /// write_chrome_trace to `path`; false (with a stderr warning) when
  /// the file cannot be opened.
  bool write_chrome_trace_file(const std::string& path) const;

 private:
  std::size_t workers_{0};
  std::size_t shards_{0};
  bool finished_{false};
  std::uint64_t begin_ns_{0};
  std::uint64_t end_ns_{0};
  /// unique_ptr: buffer addresses must stay stable while worker
  /// threads hold raw pointers into the vector.
  std::vector<std::unique_ptr<SpanBuffer>> buffers_;
  std::vector<SpanRecord> merged_;
};

}  // namespace d2dhb::sim

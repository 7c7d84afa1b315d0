// trace_report — reads the Chrome trace-event JSON the engine profiler
// writes (sim/profiler.hpp, `--trace-out`) and turns it back into the
// numbers a perf investigation starts from: the per-shard straggler
// table, barrier-wait percentiles, and the per-phase execute/wait
// breakdown. Ships as a library (this header) driven by the CLI
// in main.cpp, so tests can exercise the parser and the analysis on
// in-memory traces without shelling out.
//
// The JSON parser here is deliberately minimal and local: the repo's
// common/json is writer-only by design (deterministic exports), and
// the only JSON this tool ever reads is the trace schema we write
// ourselves plus whatever Perfetto-compatible tools emit.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace d2dhb::trace_report {

/// One parsed JSON value. Objects keep insertion order (the trace
/// format never relies on key ordering, and sorted maps would be
/// wasted work for a read-once document).
struct JsonValue {
  enum class Type : std::uint8_t { null, boolean, number, string, array,
                                   object };

  Type type{Type::null};
  bool boolean{false};
  double number{0.0};
  std::string string;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;

  /// Object member lookup; null when absent or not an object.
  const JsonValue* find(std::string_view key) const;
};

/// Parses one complete JSON document. Throws std::runtime_error with a
/// byte-offset message on malformed input or trailing garbage.
JsonValue parse_json(std::string_view text);

/// One ph:"X" complete event, with the engine-specific args pulled out.
struct TraceEvent {
  std::string name;
  std::int64_t pid{0};
  std::int64_t tid{0};
  double ts_us{0.0};
  double dur_us{0.0};
  /// args.shard for execute events; -1 otherwise.
  std::int64_t shard{-1};
  /// args.events / args.window / args.round.
  std::uint64_t payload{0};
};

/// A loaded trace: the complete events plus what the metadata said.
struct Trace {
  std::size_t workers{0};
  std::size_t shards{0};
  std::size_t metadata_events{0};
  std::vector<TraceEvent> events;
};

/// parse_json + schema extraction. Throws std::runtime_error when the
/// document is not a well-formed trace (see check_trace for the rules).
Trace parse_trace(std::string_view text);

/// Validation verdict for `trace_report --check`.
struct CheckResult {
  bool ok{true};
  std::vector<std::string> errors;
  std::size_t complete_events{0};
  std::size_t metadata_events{0};
};

/// Validates without throwing: the document must parse, be a top-level
/// object with a "traceEvents" array, every element must be an object
/// with a string "ph", and every ph:"X" event must carry a string
/// name, numeric ts/pid/tid, and a numeric non-negative dur. A trace
/// with zero complete events is also an error — an empty trace means
/// the producer was not actually profiling.
CheckResult check_trace(std::string_view text);

/// What the report prints, as data.
struct Report {
  struct ShardRow {
    std::int64_t shard{0};
    double busy_ms{0.0};
    std::uint64_t events{0};
    /// busy / total busy over all shards.
    double share{0.0};
  };

  std::size_t workers{0};
  std::size_t shards{0};
  /// Rounds (window spans) and their summed wall time.
  std::uint64_t windows{0};
  double windowed_ms{0.0};
  double execute_ms{0.0};
  double barrier_wait_ms{0.0};
  double window_utilization{0.0};
  double load_imbalance{0.0};
  std::size_t barrier_waits{0};
  double barrier_p50_us{0.0};
  double barrier_p90_us{0.0};
  double barrier_p99_us{0.0};
  double barrier_max_us{0.0};
  /// Busiest shard first — the straggler table.
  std::vector<ShardRow> stragglers;
};

/// Computes the report from the worker-side tracks (pid 1); the shard
/// tracks (pid 2) duplicate execute spans for Perfetto's benefit and
/// are ignored here to avoid double counting. A run is rounds of
/// per-kernel execute spans; barrier waits are measured at each
/// round's join.
Report analyze(const Trace& trace);

void print_report(const Report& report, std::ostream& os);

}  // namespace d2dhb::trace_report

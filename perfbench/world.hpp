// The benchmark's two fixed worlds and the bench-side instrumentation
// around them. Worlds are built only through the public scenario API:
// the city through scenario::build_city, the crowd through the same
// Scenario calls, in the same order, that scenario::run_d2d_crowd makes
// (that function does not split build from run, so the benchmark
// replays its build; test_crowd_equiv.cpp holds the replay to
// run_d2d_crowd's results).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "scenario/city.hpp"
#include "scenario/crowd.hpp"
#include "scenario/scenario.hpp"
#include "sim/engine.hpp"

namespace perfbench {

/// In-memory span recorder for the benchmark's own calls into the
/// simulator layers. Single-threaded: spans nest by call order, so the
/// parent of a span is whichever span was open when it began. A
/// disabled log records nothing, which keeps untraced runs free of
/// per-call clock reads.
class SpanLog {
 public:
  static constexpr std::size_t kNoParent = SIZE_MAX;

  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  /// Opens a span; returns its index (kNoParent when disabled).
  /// `name` must be a string literal.
  std::size_t begin(const char* name);
  void end(std::size_t span);
  /// Summed duration of every span named `name`, in seconds.
  double total_s(std::string_view name) const;
  /// Chrome trace-event JSON; "args.parent" names the enclosing span.
  void write_chrome_trace(std::ostream& os) const;

 private:
  struct Span {
    const char* name;
    std::size_t parent;
    std::uint64_t begin_ns;
    std::uint64_t end_ns;
  };
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;
};

/// RAII span over one call.
class Span {
 public:
  Span(SpanLog& log, const char* name) : log_(log), index_(log.begin(name)) {}
  ~Span() { log_.end(index_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanLog& log_;
  std::size_t index_;
};

enum class Kind { city, crowd };

struct Workload {
  std::string name;
  Kind kind{Kind::crowd};
  d2dhb::scenario::CrowdConfig crowd{};
  d2dhb::scenario::CityConfig city{};

  std::size_t phones() const;
  double duration_s() const;
};

/// The named workload with its world seed set to `seed`. Throws
/// std::invalid_argument for an unknown name.
Workload make_workload(std::string_view name, std::uint64_t seed);

struct BuiltWorld {
  std::unique_ptr<d2dhb::scenario::Scenario> world;
  /// Layout coverage, as run_d2d_crowd reports it (0 for the city).
  double relay_coverage{0.0};
};

/// Builds and starts the workload's world; nothing has run yet. Records
/// scenario.* spans around each call into the scenario layer.
BuiltWorld build_world(const Workload& workload, SpanLog& spans);

/// The crowd half of build_world: run_d2d_crowd's build, call for call.
BuiltWorld build_crowd(const d2dhb::scenario::CrowdConfig& config,
                       SpanLog& spans);

/// The engine options run_city and run_d2d_crowd use (their defaults),
/// with the given worker count and optional profiler.
d2dhb::sim::RunOptions run_options(std::size_t threads,
                                   d2dhb::sim::Profiler* profiler);

/// Deterministic outcome of one run: must match exactly between the
/// serial and the 2-thread world of one seed, and between two commits
/// that only change simulator speed.
struct Outcome {
  std::uint64_t sim_events{0};
  std::uint64_t total_l3{0};
  std::uint64_t heartbeats_delivered{0};
  std::uint64_t forwarded_via_d2d{0};
  std::uint64_t fallbacks{0};
  std::vector<std::uint64_t> shard_events_executed;
};

Outcome collect_outcome(d2dhb::scenario::Scenario& world,
                        const d2dhb::sim::RunStats& stats);

/// The CrowdMetrics run_d2d_crowd would report for this world and run.
d2dhb::scenario::CrowdMetrics crowd_metrics(
    d2dhb::scenario::Scenario& world, const BuiltWorld& built,
    const d2dhb::sim::RunStats& stats);

}  // namespace perfbench

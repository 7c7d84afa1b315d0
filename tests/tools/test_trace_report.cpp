// trace_report: the minimal JSON parser, the --check schema rules, and
// the end-to-end loop — a profiled engine run's write_chrome_trace()
// output must validate and analyze back into the same phase totals the
// profiler summarized.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>

#include "sim/engine.hpp"
#include "sim/profiler.hpp"
#include "sim/simulator.hpp"
#include "trace_report/trace_report.hpp"

namespace d2dhb::trace_report {
namespace {

TEST(JsonParser, ParsesScalarsContainersAndEscapes) {
  const JsonValue v = parse_json(
      R"({"a": [1, -2.5, 1e3], "b": {"nested": true}, "c": null,)"
      R"( "d": "q\"\\\nA"})");
  ASSERT_EQ(v.type, JsonValue::Type::object);
  const JsonValue* a = v.find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_EQ(a->array.size(), 3u);
  EXPECT_DOUBLE_EQ(a->array[0].number, 1.0);
  EXPECT_DOUBLE_EQ(a->array[1].number, -2.5);
  EXPECT_DOUBLE_EQ(a->array[2].number, 1000.0);
  EXPECT_TRUE(v.find("b")->find("nested")->boolean);
  EXPECT_EQ(v.find("c")->type, JsonValue::Type::null);
  EXPECT_EQ(v.find("d")->string, "q\"\\\nA");
  EXPECT_EQ(v.find("missing"), nullptr);
}

TEST(JsonParser, ThrowsWithByteOffsetOnMalformedInput) {
  for (const char* bad :
       {"", "{", "[1,]", "{\"a\" 1}", "tru", "\"unterminated",
        "{\"a\": 1} trailing", "nan", "[1, 2,, 3]"}) {
    EXPECT_THROW(parse_json(bad), std::runtime_error) << bad;
  }
  try {
    parse_json("[1, 2,, 3]");
    FAIL() << "expected a parse error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("byte"), std::string::npos);
  }
}

TEST(JsonParser, RejectsPathologicalNesting) {
  std::string deep(200, '[');
  deep += std::string(200, ']');
  EXPECT_THROW(parse_json(deep), std::runtime_error);
}

TEST(CheckTrace, AcceptsAMinimalWellFormedTrace) {
  const CheckResult r = check_trace(
      R"({"traceEvents": [)"
      R"({"ph": "M", "name": "process_name", "pid": 1},)"
      R"({"ph": "X", "name": "execute", "pid": 1, "tid": 0,)"
      R"( "ts": 0, "dur": 5, "args": {"shard": 0, "events": 3}}]})");
  EXPECT_TRUE(r.ok) << (r.errors.empty() ? "" : r.errors.front());
  EXPECT_EQ(r.complete_events, 1u);
  EXPECT_EQ(r.metadata_events, 1u);
}

TEST(CheckTrace, RejectsStructuralViolations) {
  // Not JSON at all; not an object; no traceEvents; traceEvents not an
  // array; event without ph; X event missing dur; negative dur; a trace
  // with zero complete events.
  for (const char* bad : {
           "not json",
           "[]",
           "{}",
           R"({"traceEvents": 7})",
           R"({"traceEvents": [{"name": "x"}]})",
           R"({"traceEvents": [{"ph": "X", "name": "x", "pid": 1,)"
           R"( "tid": 0, "ts": 0}]})",
           R"({"traceEvents": [{"ph": "X", "name": "x", "pid": 1,)"
           R"( "tid": 0, "ts": 0, "dur": -1}]})",
           R"({"traceEvents": [{"ph": "M", "name": "meta"}]})",
       }) {
    const CheckResult r = check_trace(bad);
    EXPECT_FALSE(r.ok) << bad;
    EXPECT_FALSE(r.errors.empty()) << bad;
  }
}

TEST(ParseTrace, ThrowsOnDocumentsCheckRejects) {
  EXPECT_THROW(parse_trace(R"({"traceEvents": []})"), std::runtime_error);
}

/// Multi-kernel ring workload (mirrors test_engine.cpp) — enough
/// activity that every phase kind shows up in the trace.
class RingWorkload {
 public:
  RingWorkload(sim::Simulator& sim, int ticks) : sim_(sim), ticks_(ticks) {
    for (std::uint32_t s = 0; s < sim_.shard_count(); ++s) {
      sim::ShardGuard guard(sim_, s);
      schedule_tick(s, 0);
    }
  }

 private:
  void schedule_tick(std::uint32_t shard, int i) {
    sim_.schedule_after(milliseconds(7 + shard), [this, shard, i] {
      sim_.schedule_after(milliseconds(60), [] {});
      if (i + 1 < ticks_) schedule_tick(shard, i + 1);
    });
  }

  sim::Simulator& sim_;
  int ticks_;
};

TEST(TraceReport, EndToEndProfiledRunValidatesAndAnalyzes) {
  sim::Simulator simulator{4};
  RingWorkload load{simulator, 40};
  sim::Profiler profiler;
  sim::RunOptions options;
  options.threads = 4;
  options.profiler = &profiler;
  const sim::RunStats stats =
      sim::run(simulator, TimePoint{} + seconds(2), options);

  std::ostringstream trace_json;
  profiler.write_chrome_trace(trace_json);
  const std::string text = trace_json.str();

  const CheckResult check = check_trace(text);
  ASSERT_TRUE(check.ok) << (check.errors.empty() ? "" : check.errors.front());
  EXPECT_GT(check.complete_events, 0u);
  EXPECT_GT(check.metadata_events, 0u);

  const Trace trace = parse_trace(text);
  EXPECT_EQ(trace.workers, stats.workers);
  EXPECT_EQ(trace.shards, simulator.shard_count());

  const Report report = analyze(trace);
  EXPECT_EQ(report.workers, stats.workers);
  EXPECT_EQ(report.windows, stats.windows);
  EXPECT_GT(report.execute_ms, 0.0);
  // One wait per worker per round, measured at the join.
  EXPECT_EQ(report.barrier_waits, stats.workers * stats.windows);
  EXPECT_LE(report.barrier_p50_us, report.barrier_p90_us);
  EXPECT_LE(report.barrier_p90_us, report.barrier_p99_us);
  EXPECT_LE(report.barrier_p99_us, report.barrier_max_us);
  EXPECT_GE(report.load_imbalance, 1.0);
  EXPECT_GT(report.window_utilization, 0.0);
  EXPECT_LE(report.window_utilization, 1.0);

  // The straggler table covers every shard, busiest first, shares
  // summing to one.
  ASSERT_EQ(report.stragglers.size(), simulator.shard_count());
  double share_total = 0.0;
  for (std::size_t i = 0; i < report.stragglers.size(); ++i) {
    if (i > 0) {
      EXPECT_LE(report.stragglers[i].busy_ms,
                report.stragglers[i - 1].busy_ms);
    }
    share_total += report.stragglers[i].share;
  }
  EXPECT_NEAR(share_total, 1.0, 1e-9);

  // Against the profiler's own summary: same span set, same totals.
  const sim::ProfileSummary summary = profiler.summarize();
  EXPECT_NEAR(report.execute_ms,
              static_cast<double>(summary.execute_ns) / 1e6, 0.1);
  EXPECT_NEAR(report.barrier_wait_ms,
              static_cast<double>(summary.barrier_wait_ns) / 1e6, 0.1);

  std::ostringstream rendered;
  print_report(report, rendered);
  const std::string out = rendered.str();
  EXPECT_NE(out.find("Straggler table"), std::string::npos);
  EXPECT_NE(out.find("barrier waits"), std::string::npos);
  EXPECT_NE(out.find("load imbalance"), std::string::npos);
}

TEST(Analyze, IgnoresTheDuplicatedShardTracks) {
  // Two copies of the same execute span, one per pid — only the worker
  // (pid 1) copy may count toward the totals.
  const char* text =
      R"({"otherData": {"workers": 1, "shards": 1}, "traceEvents": [)"
      R"({"ph": "X", "name": "execute", "pid": 1, "tid": 0, "ts": 0,)"
      R"( "dur": 1000, "args": {"shard": 0, "events": 10}},)"
      R"({"ph": "X", "name": "execute", "pid": 2, "tid": 0, "ts": 0,)"
      R"( "dur": 1000, "args": {"shard": 0, "events": 10}}]})";
  const Report report = analyze(parse_trace(text));
  EXPECT_DOUBLE_EQ(report.execute_ms, 1.0);
  ASSERT_EQ(report.stragglers.size(), 1u);
  EXPECT_EQ(report.stragglers[0].events, 10u);
}

}  // namespace
}  // namespace d2dhb::trace_report

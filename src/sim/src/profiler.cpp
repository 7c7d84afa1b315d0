#include "sim/profiler.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iostream>
#include <ostream>

#include "common/json.hpp"
#include "metrics/registry.hpp"

namespace d2dhb::sim {

namespace {

constexpr double kNsPerUs = 1000.0;

/// Nearest-rank percentile over an ascending-sorted sample.
double percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(sorted.size())));
  const std::size_t index = rank == 0 ? 0 : rank - 1;
  return sorted[std::min(index, sorted.size() - 1)];
}

}  // namespace

Profiler::Profiler() = default;
Profiler::~Profiler() = default;

void Profiler::begin_run(std::size_t workers, std::size_t shards) {
  workers_ = workers;
  shards_ = shards;
  finished_ = false;
  merged_.clear();
  buffers_.clear();
  buffers_.reserve(workers + 1);
  for (std::size_t w = 0; w <= workers; ++w) {
    buffers_.push_back(
        std::make_unique<SpanBuffer>(static_cast<std::uint32_t>(w)));
  }
  begin_ns_ = trace_now_ns();
  end_ns_ = begin_ns_;
}

SpanBuffer* Profiler::buffer(std::size_t worker) {
  return worker < buffers_.size() ? buffers_[worker].get() : nullptr;
}

void Profiler::end_run() {
  end_ns_ = trace_now_ns();
  merged_.clear();
  std::size_t total = 0;
  for (const auto& buffer : buffers_) total += buffer->size();
  merged_.reserve(total);
  // Buffers are appended in worker order and each is already in seq
  // order, so the merged vector is sorted by (worker, seq) — the
  // deterministic record order the tests pin (timestamps inside the
  // records are wall-clock and vary run to run; the order does not).
  for (const auto& buffer : buffers_) {
    merged_.insert(merged_.end(), buffer->spans().begin(),
                   buffer->spans().end());
  }
  finished_ = true;
}

ProfileSummary Profiler::summarize() const {
  ProfileSummary s;
  s.enabled = true;
  s.workers = workers_;
  s.wall_ns = end_ns_ >= begin_ns_ ? end_ns_ - begin_ns_ : 0;
  s.shard_busy_ns.assign(shards_, 0);
  s.shard_events.assign(shards_, 0);
  std::vector<double> waits_us;
  for (const SpanRecord& r : merged_) {
    const std::uint64_t dur = r.duration_ns();
    switch (r.kind) {
      case SpanKind::window:
        ++s.windows;
        s.windowed_ns += dur;
        break;
      case SpanKind::execute:
        s.execute_ns += dur;
        if (r.shard < s.shard_busy_ns.size()) {
          s.shard_busy_ns[r.shard] += dur;
          s.shard_events[r.shard] += r.payload;
        }
        break;
      case SpanKind::barrier_wait:
        s.barrier_wait_ns += dur;
        waits_us.push_back(static_cast<double>(dur) / kNsPerUs);
        break;
    }
  }
  s.barrier_waits = waits_us.size();
  std::sort(waits_us.begin(), waits_us.end());
  s.barrier_wait_p50_us = percentile(waits_us, 0.50);
  s.barrier_wait_p90_us = percentile(waits_us, 0.90);
  s.barrier_wait_p99_us = percentile(waits_us, 0.99);
  s.barrier_wait_max_us = waits_us.empty() ? 0.0 : waits_us.back();
  std::uint64_t busy_max = 0;
  std::uint64_t busy_sum = 0;
  for (const std::uint64_t busy : s.shard_busy_ns) {
    busy_max = std::max(busy_max, busy);
    busy_sum += busy;
  }
  if (busy_sum > 0 && !s.shard_busy_ns.empty()) {
    const double mean = static_cast<double>(busy_sum) /
                        static_cast<double>(s.shard_busy_ns.size());
    s.load_imbalance = static_cast<double>(busy_max) / mean;
  }
  const double capacity = static_cast<double>(s.windowed_ns) *
                          static_cast<double>(workers_);
  if (capacity > 0.0) {
    s.window_utilization = static_cast<double>(s.execute_ns) / capacity;
  }
  return s;
}

void Profiler::publish(metrics::MetricsRegistry& registry) const {
  const ProfileSummary s = summarize();
  auto us = [](std::uint64_t ns) {
    return static_cast<double>(ns) / kNsPerUs;
  };
  registry.gauge("runtime/workers")
      .set(static_cast<double>(s.workers));
  registry.gauge("runtime/windows")
      .set(static_cast<double>(s.windows));
  registry.gauge("runtime/wall_us").set(us(s.wall_ns));
  registry.gauge("runtime/windowed_us").set(us(s.windowed_ns));
  registry.gauge("runtime/execute_us").set(us(s.execute_ns));
  registry.gauge("runtime/barrier_wait_us").set(us(s.barrier_wait_ns));
  registry.gauge("runtime/load_imbalance").set(s.load_imbalance);
  registry.gauge("runtime/window_utilization").set(s.window_utilization);
  metrics::Histogram& waits = registry.histogram(
      "runtime/barrier_wait_dist_us",
      {10.0, 50.0, 100.0, 500.0, 1000.0, 5000.0, 10000.0, 50000.0});
  for (const SpanRecord& r : merged_) {
    if (r.kind != SpanKind::barrier_wait) continue;
    waits.observe(static_cast<double>(r.duration_ns()) / kNsPerUs);
  }
  for (std::size_t shard = 0; shard < s.shard_busy_ns.size(); ++shard) {
    metrics::Labels labels;
    labels.component = "shard-" + std::to_string(shard);
    registry.gauge("runtime/shard_busy_us", labels)
        .set(us(s.shard_busy_ns[shard]));
    registry.gauge("runtime/shard_events", labels)
        .set(static_cast<double>(s.shard_events[shard]));
  }
}

void Profiler::write_chrome_trace(std::ostream& os) const {
  auto us_since_origin = [this](std::uint64_t ns) {
    const std::uint64_t rel = ns >= begin_ns_ ? ns - begin_ns_ : 0;
    return static_cast<double>(rel) / kNsPerUs;
  };
  os << "{\"displayTimeUnit\":\"ms\",\"otherData\":{"
     << "\"schema\":\"d2dhb.trace.v1\",\"workers\":"
     << json::number(static_cast<std::uint64_t>(workers_))
     << ",\"shards\":" << json::number(static_cast<std::uint64_t>(shards_))
     << "},\"traceEvents\":[";
  bool first = true;
  auto sep = [&] {
    if (!first) os << ',';
    first = false;
    os << '\n';
  };
  auto meta = [&](int pid, std::uint64_t tid, const char* what,
                  const std::string& name) {
    sep();
    os << "{\"ph\":\"M\",\"pid\":" << pid << ",\"tid\":" << tid
       << ",\"name\":\"" << what << "\",\"args\":{\"name\":\""
       << json::escape(name) << "\"}}";
  };
  meta(1, 0, "process_name", "engine workers");
  for (std::size_t w = 0; w < workers_; ++w) {
    meta(1, w, "thread_name", "worker-" + std::to_string(w));
  }
  meta(1, workers_, "thread_name", "main");
  meta(2, 0, "process_name", "shards");
  for (std::size_t shard = 0; shard < shards_; ++shard) {
    meta(2, shard, "thread_name", "shard-" + std::to_string(shard));
  }
  auto event = [&](int pid, std::uint64_t tid, const SpanRecord& r) {
    sep();
    os << "{\"ph\":\"X\",\"pid\":" << pid << ",\"tid\":" << tid
       << ",\"name\":\"" << to_string(r.kind)
       << "\",\"cat\":\"engine\",\"ts\":"
       << json::number(us_since_origin(r.begin_ns))
       << ",\"dur\":" << json::number(static_cast<double>(r.duration_ns()) /
                                      kNsPerUs)
       << ",\"args\":{";
    switch (r.kind) {
      case SpanKind::window:
        os << "\"window\":" << json::number(r.payload);
        break;
      case SpanKind::execute:
        os << "\"shard\":" << r.shard
           << ",\"events\":" << json::number(r.payload);
        break;
      case SpanKind::barrier_wait:
        os << "\"round\":" << json::number(r.payload);
        break;
    }
    os << "}}";
  };
  for (const SpanRecord& r : merged_) {
    event(1, r.worker, r);
    // Execute spans also land on their shard's track, so the
    // trace reads from either side: "what did worker 2 do" and "who
    // ran shard 5 and when".
    if (r.shard != SpanRecord::kNoShard) event(2, r.shard, r);
  }
  os << "\n]}\n";
}

bool Profiler::write_chrome_trace_file(const std::string& path) const {
  std::ofstream out(path);
  if (!out) {
    std::cerr << "warning: cannot write trace to " << path << '\n';
    return false;
  }
  write_chrome_trace(out);
  return true;
}

}  // namespace d2dhb::sim

// Unified metrics registry — the observability substrate.
//
// One MetricsRegistry per simulated world (owned by the Simulator) holds
// every named counter, gauge and fixed-bucket histogram the substrates
// register, keyed by hierarchical labels (node, cell, component).
// Substrates register once at construction and cache the returned
// reference — an increment is then a single pointer chase, so always-on
// counting stays off the simulator's hot path.
//
// Storage is one family per metric name: the name, the kind and (for
// histograms) the bucket bounds, interned once. A family keeps one
// column per (cell, component) label set it was registered under — a
// per-phone family has exactly one. A column's rows are (node, payload)
// pairs in registration order, in chunks that never move an element, so
// a series costs its payload plus an 8 B node key: 16 B for a counter,
// a set gauge or a bound gauge (which holds only its owner's address;
// the family holds the one reader). Rows registered in node order need
// no index; a column grows a 4 B-per-row sorted index only once a node
// arrives out of order.
//
// snapshot() materializes the whole tree in deterministic (name, node,
// cell, component) order; because every simulation is a pure function of
// (config, seed), snapshots — and their JSON/CSV exports — are
// byte-identical across thread counts.
//
// Lifetime: the registry owns the metric objects and outlives the
// substrates that registered them (the Simulator is always constructed
// first and destroyed last). Bound gauges point at their owner; take
// snapshots while the world is alive.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common/thread_annotations.hpp"

namespace d2dhb::metrics {

class MetricsRegistry;

/// Hierarchical label set identifying one series of a named metric.
/// Unset dimensions (node 0, cell -1, empty component) are omitted from
/// exports.
struct Labels {
  std::uint64_t node{0};
  std::int64_t cell{-1};
  std::string component{};

  auto operator<=>(const Labels&) const = default;
};

enum class Kind : std::uint8_t { counter, gauge, histogram };

const char* to_string(Kind kind);

/// Monotonically increasing event count. Increments are relaxed
/// atomics: shared series (a base station's per-cell counters) are hit
/// from several worker threads, and a sum is order-free — the snapshot
/// total is deterministic regardless of increment interleaving.
class Counter {
 public:
  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void inc(std::uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Point-in-time value, set explicitly. A quantity that lives elsewhere
/// (accumulated charge in an EnergyMeter) is a bound gauge instead
/// (MetricsRegistry::gauge_fn), read from its owner at snapshot time.
class Gauge {
 public:
  void set(double v) { value_ = v; }
  void add(double d) { value_ += d; }
  double value() const { return value_; }

 private:
  double value_{0.0};
};

/// Fixed-bucket distribution. Buckets are cumulative-style upper bounds
/// (value <= bound); one implicit overflow bucket catches the rest.
class Histogram {
 public:
  /// Observes into caller-owned storage: sorted `bounds` and
  /// `bounds.size() + 1` zeroed `counts`, both outliving the histogram.
  /// The registry passes its family's bounds and a slot of the family's
  /// bucket chunks, so a series carries no heap block of its own.
  Histogram(const std::vector<double>& bounds, std::uint64_t* counts)
      : bounds_(&bounds), counts_(counts) {}
  /// A copy would share the bucket counts but not count() and sum().
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void observe(double v);

  const std::vector<double>& bounds() const { return *bounds_; }
  /// bounds().size() + 1 entries; the last is the overflow bucket.
  std::span<const std::uint64_t> bucket_counts() const {
    return {counts_, bounds_->size() + 1};
  }
  std::uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  double mean() const {
    return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
  }

 private:
  const std::vector<double>* bounds_;
  std::uint64_t* counts_;
  std::uint64_t count_{0};
  double sum_{0.0};
};

struct HistogramSnapshot {
  std::vector<double> bounds;
  std::vector<std::uint64_t> counts;  ///< bounds.size() + 1 (overflow last).
  std::uint64_t count{0};
  double sum{0.0};
};

/// One materialized metric series.
struct SnapshotEntry {
  std::string name;
  Labels labels;
  Kind kind{Kind::counter};
  std::uint64_t count{0};     ///< Counters.
  double value{0.0};          ///< Gauges.
  HistogramSnapshot histogram;
};

/// Deterministic point-in-time view of a registry: entries sorted by
/// (name, node, cell, component). Values are plain data — safe to move
/// across threads, aggregate, and export after the world is gone.
struct Snapshot {
  std::vector<SnapshotEntry> entries;

  const SnapshotEntry* find(std::string_view name,
                            const Labels& labels = {}) const;
  /// Counter value for one series; 0 if absent.
  std::uint64_t counter(std::string_view name,
                        const Labels& labels = {}) const;
  /// Gauge value for one series; 0.0 if absent.
  double gauge(std::string_view name, const Labels& labels = {}) const;
  /// Sum of a counter across every label set it was registered under.
  std::uint64_t counter_total(std::string_view name) const;
  /// Sum of a gauge across every label set it was registered under.
  double gauge_total(std::string_view name) const;

  bool empty() const { return entries.empty(); }
};

/// Element-wise aggregation: counters, gauges, and histograms sum across
/// parts (matching on name + labels + kind). Entry order stays
/// deterministic.
Snapshot merge(const std::vector<Snapshot>& parts);

class MetricsRegistry {
 public:
  MetricsRegistry();
  ~MetricsRegistry();
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Registers (or finds) a metric. Re-registering the same
  /// (name, labels) returns the same object, so substrates recreated
  /// within one world keep accumulating into one series. A name has one
  /// kind (and, for histograms, one set of bounds): registering it as a
  /// different kind, or a histogram with other bounds, throws
  /// std::logic_error.
  ///
  /// The returned reference is stable (rows live in chunks that never
  /// move) and is used lock-free afterwards: Counters are relaxed
  /// atomics, the other kinds are only touched from their owning
  /// kernel's strip. The lock guards the tables themselves — concurrent
  /// registration from different strips stays safe. A registration that
  /// throws (a kind collision, or a failed allocation) adds no series.
  Counter& counter(std::string_view name, const Labels& labels = {})
      D2DHB_EXCLUDES(mutex_);
  Gauge& gauge(std::string_view name, const Labels& labels = {})
      D2DHB_EXCLUDES(mutex_);
  /// Bound gauge: `read(owner)` is evaluated at snapshot time. A name's
  /// series all share one reader, passed as a captureless function
  /// (lambda), and each series stores only `&owner`. Re-registering a
  /// series rebinds it to the new owner (so a recreated object rebinds
  /// cleanly). A name is either set gauges (gauge()) or bound ones, and
  /// binding it with another reader throws std::logic_error, like a
  /// kind collision.
  template <typename Owner>
  void gauge_fn(std::string_view name, const Labels& labels, Owner& owner,
                std::type_identity_t<double (*)(Owner&)> read)
      D2DHB_EXCLUDES(mutex_) {
    bind_gauge(name, labels,
               const_cast<void*>(static_cast<const void*>(&owner)),
               GaugeReader{&read_owner<Owner>,
                           reinterpret_cast<void (*)()>(read)});
  }
  Histogram& histogram(std::string_view name, std::vector<double> bounds,
                       const Labels& labels = {}) D2DHB_EXCLUDES(mutex_);

  /// Number of registered series.
  std::size_t size() const D2DHB_EXCLUDES(mutex_);

  /// Heap and table bytes the registry's own storage holds: families,
  /// columns, row chunks (full chunks, used or not), sorted row indexes,
  /// histogram bucket chunks and interned strings.
  std::size_t bytes_reserved() const D2DHB_EXCLUDES(mutex_);

  Snapshot snapshot() const D2DHB_EXCLUDES(mutex_);

 private:
  /// One metric name: its histogram bounds, gauge reader and label-set
  /// columns (defined in registry.cpp).
  struct Family;

  /// A bound gauge family's reader: `invoke(read, owner)` casts `read`
  /// back to its own type and calls it on the owner.
  struct GaugeReader {
    double (*invoke)(void (*read)(), void* owner){nullptr};
    void (*read)(){nullptr};

    double operator()(void* owner) const { return invoke(read, owner); }
    bool operator==(const GaugeReader&) const = default;
  };

  template <typename Owner>
  static double read_owner(void (*read)(), void* owner) {
    return reinterpret_cast<double (*)(Owner&)>(read)(
        *static_cast<Owner*>(owner));
  }

  void bind_gauge(std::string_view name, const Labels& labels, void* owner,
                  GaugeReader reader) D2DHB_EXCLUDES(mutex_);
  Family& family_of(std::string_view name, std::size_t payload,
                    const std::vector<double>* bounds,
                    const GaugeReader& reader) D2DHB_REQUIRES(mutex_);
  std::uint32_t intern_component(std::string_view component)
      D2DHB_REQUIRES(mutex_);
  /// Returns the payload of `labels`' series in `name`'s family, first
  /// adding a row with `add(family, rows, node)` if the series is new.
  template <typename T, typename Add>
  T& find_or_add(std::string_view name, const Labels& labels,
                 const std::vector<double>* bounds, const GaugeReader& reader,
                 Add add) D2DHB_REQUIRES(mutex_);

  mutable Mutex mutex_;
  /// Families in creation order (ids), and their ids sorted by name.
  std::vector<std::unique_ptr<Family>> families_ D2DHB_GUARDED_BY(mutex_);
  std::vector<std::uint32_t> families_by_name_ D2DHB_GUARDED_BY(mutex_);
  /// Interned label components in first-use order (ids), and their ids
  /// sorted by string.
  std::vector<std::string> components_ D2DHB_GUARDED_BY(mutex_);
  std::vector<std::uint32_t> components_by_name_ D2DHB_GUARDED_BY(mutex_);
  std::size_t size_ D2DHB_GUARDED_BY(mutex_){0};
};

}  // namespace d2dhb::metrics

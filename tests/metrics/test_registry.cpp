#include "metrics/registry.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdlib>
#include <deque>
#include <latch>
#include <map>
#include <new>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "common/rng.hpp"
#include "metrics/export.hpp"

// Allocation fault injection for the exception-safety test: once armed
// with n, the calling thread's n-th next allocation throws
// std::bad_alloc (and disarms). Disarmed, this is plain malloc/free.
namespace {
thread_local long g_allocations_until_fault = -1;
}  // namespace

void* operator new(std::size_t size) {
  if (g_allocations_until_fault >= 0 && g_allocations_until_fault-- == 0) {
    throw std::bad_alloc();
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
// GCC pairs an inlined `new` with this `free` and warns; both sides are
// the replacements above, so they match.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace d2dhb::metrics {
namespace {

TEST(MetricsRegistry, CounterAccumulates) {
  MetricsRegistry reg;
  Counter& c = reg.counter("hb.sent");
  c.inc();
  c.inc(3);
  EXPECT_EQ(c.value(), 4u);
  // Re-registering the same key returns the same object.
  EXPECT_EQ(&reg.counter("hb.sent"), &c);
  EXPECT_EQ(reg.size(), 1u);
}

TEST(MetricsRegistry, LabelsSeparateSeries) {
  MetricsRegistry reg;
  Counter& a = reg.counter("hb.sent", {1, -1, "ue"});
  Counter& b = reg.counter("hb.sent", {2, -1, "ue"});
  EXPECT_NE(&a, &b);
  a.inc(2);
  b.inc(5);
  const Snapshot snap = reg.snapshot();
  EXPECT_EQ(snap.counter("hb.sent", {1, -1, "ue"}), 2u);
  EXPECT_EQ(snap.counter("hb.sent", {2, -1, "ue"}), 5u);
  EXPECT_EQ(snap.counter_total("hb.sent"), 7u);
}

TEST(MetricsRegistry, KindCollisionThrows) {
  MetricsRegistry reg;
  reg.counter("x");
  EXPECT_THROW(reg.gauge("x"), std::logic_error);
  EXPECT_THROW(reg.histogram("x", {1.0}), std::logic_error);
}

TEST(MetricsRegistry, KindIsPerNameNotPerSeries) {
  MetricsRegistry reg;
  reg.counter("x", {1, -1, "ue"});
  // A name is one family with one kind, whatever the labels.
  EXPECT_THROW(reg.gauge("x", {2, -1, "ue"}), std::logic_error);
  EXPECT_EQ(reg.size(), 1u);
}

TEST(MetricsRegistry, HistogramBoundsBelongToTheName) {
  MetricsRegistry reg;
  Histogram& h = reg.histogram("h", {1.0, 2.0}, {1, -1, ""});
  EXPECT_EQ(&reg.histogram("h", {1.0, 2.0}, {1, -1, ""}), &h);
  EXPECT_THROW(reg.histogram("h", {1.0, 3.0}, {2, -1, ""}),
               std::logic_error);
  EXPECT_THROW(reg.histogram("unsorted", {2.0, 1.0}), std::invalid_argument);
  EXPECT_EQ(reg.size(), 1u);
}

TEST(MetricsRegistry, ComponentsSortByStringNotByInternOrder) {
  MetricsRegistry reg;
  // "zeta" is interned first, so its id is lower than "alpha"'s.
  reg.counter("c", {1, -1, "zeta"});
  reg.counter("c", {1, -1, "alpha"});
  reg.counter("c", {1, -1, ""});
  const Snapshot snap = reg.snapshot();
  ASSERT_EQ(snap.entries.size(), 3u);
  EXPECT_EQ(snap.entries[0].labels.component, "");
  EXPECT_EQ(snap.entries[1].labels.component, "alpha");
  EXPECT_EQ(snap.entries[2].labels.component, "zeta");
}

// A counter series is its 8 B payload and 8 B node key; the rest is the
// last chunk's unused tail and the family's fixed tables: 163,305 B for
// 10k nodes (16.3 B each) on x86-64 libstdc++.
TEST(MetricsRegistry, CounterFamilyCostsAtMost17BytesPerSeries) {
  MetricsRegistry reg;
  constexpr std::uint64_t kNodes = 10000;
  for (std::uint64_t node = 1; node <= kNodes; ++node) {
    reg.counter("relay.forwarded_received", {node, -1, "relay"});
  }
  EXPECT_GT(reg.bytes_reserved(), 0u);
  EXPECT_LE(reg.bytes_reserved(), 17 * kNodes);
}

TEST(MetricsRegistry, FirstSeriesKeepsItsAddressAcross100kRegistrations) {
  MetricsRegistry reg;
  constexpr std::uint64_t kLater = 100000;
  // The first series takes the highest node, so every later one arrives
  // out of order and the family grows a sorted index beside its rows.
  Counter& first = reg.counter("relay.forwarded_received",
                               {kLater + 1, -1, "relay"});
  first.inc(3);
  for (std::uint64_t node = 1; node <= kLater; ++node) {
    reg.counter("relay.forwarded_received", {node, -1, "relay"}).inc();
  }
  EXPECT_EQ(&reg.counter("relay.forwarded_received",
                         {kLater + 1, -1, "relay"}),
            &first);
  EXPECT_EQ(first.value(), 3u);
  const Snapshot snap = reg.snapshot();
  ASSERT_EQ(snap.entries.size(), kLater + 1);
  EXPECT_EQ(snap.entries.front().labels.node, 1u);
  EXPECT_EQ(snap.entries.back().labels.node, kLater + 1);
  EXPECT_EQ(snap.entries.back().count, 3u);
}

TEST(MetricsRegistry, FailedAllocationAddsNoHalfBuiltSeries) {
  MetricsRegistry reg;
  constexpr std::uint64_t kNodes = 150;
  std::size_t expected = 0;
  std::size_t faults = 0;
  // Fails a registration's first, second, ... allocation until one goes
  // through, so every family, component, row, block, chunk and index
  // growth is hit once; a failed attempt must leave no series behind.
  const auto with_faults = [&](const auto& registration) {
    for (long fault = 0;; ++fault) {
      g_allocations_until_fault = fault;
      try {
        registration();
        g_allocations_until_fault = -1;
        break;
      } catch (const std::bad_alloc&) {
        ++faults;
        EXPECT_EQ(reg.size(), expected);
      }
    }
    EXPECT_EQ(reg.size(), ++expected);
  };
  Counter* first = nullptr;
  double one = 1.0;
  for (std::uint64_t node = 1; node <= kNodes; ++node) {
    // Ascending rows append, descending ones insert at the front.
    const Labels up{node, -1, std::to_string(node)};
    const Labels down{kNodes + 1 - node, 2, "relay"};
    with_faults([&] { reg.counter("faulty.counter", up).inc(); });
    with_faults([&] {
      reg.histogram("faulty.histogram", {1.0, 2.0}, down).observe(1.5);
    });
    with_faults([&] {
      reg.gauge_fn("faulty.gauge", down, one, [](double& v) { return v; });
    });
    if (first == nullptr) first = &reg.counter("faulty.counter", up);
  }
  EXPECT_GT(faults, kNodes);
  EXPECT_EQ(&reg.counter("faulty.counter", {1, -1, "1"}), first);

  const Snapshot snap = reg.snapshot();
  ASSERT_EQ(snap.entries.size(), 3 * kNodes);
  EXPECT_EQ(snap.counter_total("faulty.counter"), kNodes);
  EXPECT_DOUBLE_EQ(snap.gauge_total("faulty.gauge"),
                   static_cast<double>(kNodes));
  std::uint64_t observed = 0;
  for (const SnapshotEntry& e : snap.entries) {
    if (e.kind == Kind::histogram) observed += e.histogram.counts[1];
  }
  EXPECT_EQ(observed, kNodes);
}

TEST(MetricsRegistry, GaugeSetAndCallback) {
  MetricsRegistry reg;
  Gauge& g = reg.gauge("battery");
  g.set(0.75);
  EXPECT_DOUBLE_EQ(g.value(), 0.75);

  double external = 1.0;
  reg.gauge_fn("energy", {}, external, [](double& v) { return v; });
  external = 42.5;
  // Callback gauges read through at snapshot time.
  EXPECT_DOUBLE_EQ(reg.snapshot().gauge("energy"), 42.5);
}

TEST(MetricsRegistry, GaugeFnReRegistrationRebindsCallback) {
  MetricsRegistry reg;
  double first = 1.0;
  double second = 2.0;
  const auto read = [](double& v) { return v; };
  reg.gauge_fn("v", {}, first, read);
  reg.gauge_fn("v", {}, second, read);
  EXPECT_DOUBLE_EQ(reg.snapshot().gauge("v"), 2.0);
  EXPECT_EQ(reg.size(), 1u);
  // A name has one reader, and is either set or bound gauges.
  EXPECT_THROW(reg.gauge_fn("v", {1, -1, ""}, first,
                            [](double& v) { return -v; }),
               std::logic_error);
  EXPECT_THROW(reg.gauge("v", {1, -1, ""}), std::logic_error);
  reg.gauge("set");
  EXPECT_THROW(reg.gauge_fn("set", {1, -1, ""}, first, read),
               std::logic_error);
  EXPECT_EQ(reg.size(), 2u);
}

TEST(MetricsRegistry, HistogramBuckets) {
  MetricsRegistry reg;
  Histogram& h = reg.histogram("bundle", {1.0, 2.0, 4.0});
  h.observe(1.0);   // <= 1
  h.observe(2.0);   // <= 2
  h.observe(3.0);   // <= 4
  h.observe(100.0); // overflow
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.sum(), 106.0);
  ASSERT_EQ(h.bucket_counts().size(), 4u);
  EXPECT_EQ(h.bucket_counts()[0], 1u);
  EXPECT_EQ(h.bucket_counts()[1], 1u);
  EXPECT_EQ(h.bucket_counts()[2], 1u);
  EXPECT_EQ(h.bucket_counts()[3], 1u);
  EXPECT_DOUBLE_EQ(h.mean(), 26.5);
}

TEST(MetricsRegistry, SnapshotSortedByNameThenLabels) {
  MetricsRegistry reg;
  reg.counter("b", {2, -1, ""});
  reg.counter("b", {1, -1, ""});
  reg.counter("a", {5, -1, ""});
  const Snapshot snap = reg.snapshot();
  ASSERT_EQ(snap.entries.size(), 3u);
  EXPECT_EQ(snap.entries[0].name, "a");
  EXPECT_EQ(snap.entries[1].name, "b");
  EXPECT_EQ(snap.entries[1].labels.node, 1u);
  EXPECT_EQ(snap.entries[2].labels.node, 2u);
}

TEST(MetricsRegistry, SnapshotFindMissingReturnsDefaults) {
  MetricsRegistry reg;
  const Snapshot snap = reg.snapshot();
  EXPECT_EQ(snap.find("nope"), nullptr);
  EXPECT_EQ(snap.counter("nope"), 0u);
  EXPECT_DOUBLE_EQ(snap.gauge("nope"), 0.0);
  EXPECT_TRUE(snap.empty());
}

TEST(MetricsMerge, SumsMatchingSeries) {
  MetricsRegistry a, b;
  a.counter("c").inc(2);
  b.counter("c").inc(3);
  a.gauge("g").set(1.5);
  b.gauge("g").set(2.5);
  a.histogram("h", {10.0}).observe(4.0);
  b.histogram("h", {10.0}).observe(6.0);
  const Snapshot merged = merge({a.snapshot(), b.snapshot()});
  EXPECT_EQ(merged.counter("c"), 5u);
  EXPECT_DOUBLE_EQ(merged.gauge("g"), 4.0);
  const SnapshotEntry* h = merged.find("h");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->histogram.count, 2u);
  EXPECT_DOUBLE_EQ(h->histogram.sum, 10.0);
}

TEST(MetricsMerge, DisjointSeriesUnionInSortedOrder) {
  MetricsRegistry a, b;
  a.counter("only.a").inc();
  b.counter("only.b").inc(7);
  const Snapshot merged = merge({a.snapshot(), b.snapshot()});
  ASSERT_EQ(merged.entries.size(), 2u);
  EXPECT_EQ(merged.entries[0].name, "only.a");
  EXPECT_EQ(merged.entries[1].name, "only.b");
  EXPECT_EQ(merged.counter("only.b"), 7u);
}

// --- Property test: seeded registration scripts against a map oracle ---

/// What a series must report, kept by a plain std::map keyed like the
/// exports sort: (name, node, cell, component string).
struct OracleSeries {
  Kind kind{Kind::counter};
  const void* object{nullptr};  ///< First reference the registry returned.
  std::uint64_t count{0};
  double set_value{0.0};
  const double* owner{nullptr};  ///< Bound gauges: read at snapshot time.
  std::vector<double> bounds;
  std::vector<std::uint64_t> buckets;
  std::uint64_t observations{0};
  double sum{0.0};
};

using OracleKey =
    std::tuple<std::string, std::uint64_t, std::int64_t, std::string>;

class Oracle {
 public:
  std::map<OracleKey, OracleSeries> series;
  std::map<std::string, Kind> kinds;

  Snapshot snapshot() const {
    Snapshot snap;
    for (const auto& [key, s] : series) {
      SnapshotEntry e;
      e.name = std::get<0>(key);
      e.labels = Labels{std::get<1>(key), std::get<2>(key), std::get<3>(key)};
      e.kind = s.kind;
      switch (s.kind) {
        case Kind::counter: e.count = s.count; break;
        case Kind::gauge:
          e.value = s.owner != nullptr ? *s.owner : s.set_value;
          break;
        case Kind::histogram:
          e.histogram = HistogramSnapshot{s.bounds, s.buckets, s.observations,
                                          s.sum};
          break;
      }
      snap.entries.push_back(std::move(e));
    }
    return snap;
  }
};

std::string json_of(const Snapshot& snap) {
  std::ostringstream os;
  export_json(snap, os);
  return os.str();
}

std::string csv_of(const Snapshot& snap) {
  std::ostringstream os;
  export_csv(snap, os);
  return os.str();
}

/// Runs one seeded script: registrations with repeats, in ascending,
/// descending or shuffled node order by name; bound gauges rebound to
/// new owners; names under one label set (a per-phone family), two, or
/// any of 24 (cells times components, interned in non-lexical order);
/// and kind, gauge form, reader and bounds collisions.
void run_script(std::uint64_t seed, int steps) {
  Rng rng(seed);
  MetricsRegistry reg;
  Oracle oracle;

  const std::array<std::string, 10> names = {
      "ue.heartbeats", "relay.forwarded_received", "a", "energy.radio_uah",
      "scheduler.flushes.capacity_reached", "b.c", "battery.level",
      "runtime/shard_events", "z", "scheduler.bundle_size"};
  const std::array<std::string, 6> components = {
      "zeta", "", "relay-with-a-long-component", "alpha", "ue", "b"};
  const std::array<std::int64_t, 4> cells = {-1, 0, 1, 7};
  const std::array<std::vector<double>, 2> bounds_pool = {
      std::vector<double>{1.0, 2.0, 4.0}, std::vector<double>{0.5, 10.0}};
  std::map<std::string, std::vector<double>> bounds_of;
  // Gauge names registered in the bound form, and the owners they read
  // (a deque, so an owner never moves).
  std::map<std::string, bool> bound_gauge;
  std::deque<double> owners;
  const auto read = [](double& v) { return v; };
  const auto negate = [](double& v) { return -v; };

  // Node ids: a sparse set in three orders (name index mod 3 picks one),
  // walked with one cursor and repeats.
  std::vector<std::uint64_t> shuffled;
  for (std::uint64_t i = 0; i < 40; ++i) shuffled.push_back(i * 3 + (i % 4));
  for (std::size_t i = shuffled.size(); i > 1; --i) {
    std::swap(shuffled[i - 1], shuffled[rng.uniform_int(0, i - 1)]);
  }
  std::vector<std::uint64_t> ascending = shuffled;
  std::sort(ascending.begin(), ascending.end());
  const std::vector<std::uint64_t> descending(ascending.rbegin(),
                                              ascending.rend());
  const std::array<const std::vector<std::uint64_t>*, 3> orders = {
      &ascending, &descending, &shuffled};
  std::size_t cursor = 0;

  for (int step = 0; step < steps; ++step) {
    const std::size_t which = rng.uniform_int(0, names.size() - 1);
    const std::string& name = names[which];
    const std::vector<std::uint64_t>& nodes = *orders[which % 3];
    const std::uint64_t node = rng.chance(0.3)
                                   ? nodes[rng.uniform_int(0, cursor)]
                                   : nodes[cursor];
    cursor = std::min(cursor + 1, nodes.size() - 1);
    // Early steps use the components in pool order, so "zeta" is
    // interned before "alpha". Later, names with an even index keep one
    // label set, index 1 mod 4 two, and index 3 mod 4 any of 24.
    Labels labels{node, -1, components[which % components.size()]};
    if (step < static_cast<int>(components.size())) {
      labels.cell = cells[rng.uniform_int(0, cells.size() - 1)];
      labels.component = components[static_cast<std::size_t>(step)];
    } else if (which % 4 == 1 && rng.chance(0.5)) {
      labels.cell = 7;
      labels.component = components[(which + 3) % components.size()];
    } else if (which % 4 == 3) {
      labels.cell = cells[rng.uniform_int(0, cells.size() - 1)];
      labels.component =
          components[rng.uniform_int(0, components.size() - 1)];
    }
    const OracleKey key{name, labels.node, labels.cell, labels.component};

    auto known = oracle.kinds.find(name);
    Kind kind = static_cast<Kind>(rng.uniform_int(0, 2));
    const bool collide = known != oracle.kinds.end() && rng.chance(0.05);
    if (known != oracle.kinds.end() && !collide) kind = known->second;
    if (collide && kind == known->second) {
      kind = static_cast<Kind>((static_cast<int>(kind) + 1) % 3);
    }
    if (kind == Kind::histogram && !bounds_of.contains(name)) {
      bounds_of[name] = bounds_pool[rng.uniform_int(0, 1)];
    }
    if (kind == Kind::gauge && !bound_gauge.contains(name)) {
      bound_gauge[name] = rng.chance(0.5);
    }
    const std::size_t size_before = reg.size();
    if (collide) {
      switch (kind) {
        case Kind::counter:
          EXPECT_THROW(reg.counter(name, labels), std::logic_error);
          break;
        case Kind::gauge:
          if (bound_gauge[name]) {
            EXPECT_THROW(reg.gauge_fn(name, labels, owners.emplace_back(),
                                      read),
                         std::logic_error);
          } else {
            EXPECT_THROW(reg.gauge(name, labels), std::logic_error);
          }
          break;
        case Kind::histogram:
          EXPECT_THROW(reg.histogram(name, bounds_of[name], labels),
                       std::logic_error);
          break;
      }
      EXPECT_EQ(reg.size(), size_before);
      continue;
    }
    if (kind == Kind::histogram && known != oracle.kinds.end() &&
        rng.chance(0.05)) {
      std::vector<double> other = bounds_of[name];
      other.push_back(other.back() + 1.0);
      EXPECT_THROW(reg.histogram(name, other, labels), std::logic_error);
      EXPECT_EQ(reg.size(), size_before);
      continue;
    }
    if (kind == Kind::gauge && known != oracle.kinds.end() &&
        rng.chance(0.05)) {
      // The other gauge form, or the bound form with another reader.
      if (!bound_gauge[name]) {
        EXPECT_THROW(reg.gauge_fn(name, labels, owners.emplace_back(), read),
                     std::logic_error);
      } else if (rng.chance(0.5)) {
        EXPECT_THROW(reg.gauge(name, labels), std::logic_error);
      } else {
        EXPECT_THROW(
            reg.gauge_fn(name, labels, owners.emplace_back(), negate),
            std::logic_error);
      }
      EXPECT_EQ(reg.size(), size_before);
      continue;
    }
    oracle.kinds.emplace(name, kind);
    const bool fresh = !oracle.series.contains(key);
    OracleSeries& want = oracle.series[key];
    want.kind = kind;

    const void* got = nullptr;
    switch (kind) {
      case Kind::counter: {
        Counter& c = reg.counter(name, labels);
        const std::uint64_t n = rng.uniform_int(0, 5);
        c.inc(n);
        want.count += n;
        got = &c;
        break;
      }
      case Kind::gauge: {
        const double v = rng.uniform(-5.0, 5.0);
        if (bound_gauge[name]) {
          // Every registration binds a new owner: a repeat rebinds.
          double& owner = owners.emplace_back(v);
          reg.gauge_fn(name, labels, owner, read);
          want.owner = &owner;
        } else {
          Gauge& g = reg.gauge(name, labels);
          g.set(v);
          want.set_value = v;
          got = &g;
        }
        break;
      }
      case Kind::histogram: {
        const std::vector<double>& bounds = bounds_of[name];
        Histogram& h = reg.histogram(name, bounds, labels);
        if (fresh) {
          want.bounds = bounds;
          want.buckets.assign(bounds.size() + 1, 0);
        }
        const double v = rng.uniform(0.0, 12.0);
        h.observe(v);
        std::size_t bucket = 0;
        while (bucket < bounds.size() && v > bounds[bucket]) ++bucket;
        ++want.buckets[bucket];
        ++want.observations;
        want.sum += v;
        got = &h;
        break;
      }
    }
    if (fresh) want.object = got;
    EXPECT_EQ(got, want.object) << "re-registration moved " << name;
    EXPECT_EQ(reg.size(), oracle.series.size());
  }

  // Bound gauges read their owner when the snapshot is taken.
  for (double& owner : owners) owner += 0.25;
  const Snapshot got = reg.snapshot();
  const Snapshot want = oracle.snapshot();
  ASSERT_EQ(got.entries.size(), want.entries.size());
  for (std::size_t i = 0; i < got.entries.size(); ++i) {
    const SnapshotEntry& g = got.entries[i];
    const SnapshotEntry& w = want.entries[i];
    EXPECT_EQ(g.name, w.name) << "entry " << i;
    EXPECT_EQ(g.labels, w.labels) << "entry " << i;
    EXPECT_EQ(g.kind, w.kind) << "entry " << i;
    EXPECT_EQ(g.count, w.count) << "entry " << i;
    EXPECT_EQ(g.value, w.value) << "entry " << i;
    EXPECT_EQ(g.histogram.bounds, w.histogram.bounds) << "entry " << i;
    EXPECT_EQ(g.histogram.counts, w.histogram.counts) << "entry " << i;
    EXPECT_EQ(g.histogram.count, w.histogram.count) << "entry " << i;
    EXPECT_EQ(g.histogram.sum, w.histogram.sum) << "entry " << i;
  }
  EXPECT_EQ(json_of(got), json_of(want));
  EXPECT_EQ(csv_of(got), csv_of(want));
}

TEST(MetricsRegistryProperty, ScriptsMatchTheMapOracle) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    run_script(seed, 600);
    if (HasFailure()) return;
  }
}

// --- Concurrency: registration never moves a live reference ---

TEST(MetricsRegistryConcurrency, RegistrationKeepsHeldReferencesLive) {
  MetricsRegistry reg;
  constexpr std::uint64_t kHeld = 64;
  constexpr std::uint64_t kIncrements = kHeld * 4000;
  constexpr std::uint64_t kPerRegistrar = 3000;
  std::vector<Counter*> held;
  for (std::uint64_t node = 1; node <= kHeld; ++node) {
    held.push_back(&reg.counter("shared.counter", {node * 1000, -1, "ue"}));
  }

  std::latch start(3);
  // The two registrars interleave node ids (odd and even), so each
  // inserts into the middle of the other's rows as well as appending.
  auto registrar = [&](std::uint64_t parity) {
    start.arrive_and_wait();
    for (std::uint64_t i = 0; i < kPerRegistrar; ++i) {
      const Labels labels{2 * i + parity + 1, -1, parity == 0 ? "a" : "b"};
      reg.counter("shared.counter", labels).inc();
      reg.gauge("shared.gauge", labels).set(1.0);
      reg.histogram("shared.histogram", {1.0, 2.0}, labels).observe(1.5);
    }
  };
  std::thread even(registrar, 0);
  std::thread odd(registrar, 1);
  std::thread incrementer([&] {
    start.arrive_and_wait();
    for (std::uint64_t i = 0; i < kIncrements; ++i) held[i % kHeld]->inc();
  });
  even.join();
  odd.join();
  incrementer.join();

  for (std::uint64_t node = 1; node <= kHeld; ++node) {
    Counter& c = reg.counter("shared.counter", {node * 1000, -1, "ue"});
    EXPECT_EQ(&c, held[node - 1]);
    EXPECT_EQ(c.value(), kIncrements / kHeld);
  }
  const Snapshot snap = reg.snapshot();
  EXPECT_EQ(snap.counter_total("shared.counter"),
            kIncrements + 2 * kPerRegistrar);
  EXPECT_DOUBLE_EQ(snap.gauge_total("shared.gauge"),
                   static_cast<double>(2 * kPerRegistrar));
  EXPECT_EQ(reg.size(), kHeld + 3 * 2 * kPerRegistrar);
}

}  // namespace
}  // namespace d2dhb::metrics

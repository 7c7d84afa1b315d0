#include "metrics/registry.hpp"

#include <algorithm>
#include <cstddef>
#include <deque>
#include <map>
#include <stdexcept>
#include <tuple>
#include <utility>
#include <variant>

namespace d2dhb::metrics {

const char* to_string(Kind kind) {
  switch (kind) {
    case Kind::counter: return "counter";
    case Kind::gauge: return "gauge";
    case Kind::histogram: return "histogram";
  }
  return "?";
}

void Histogram::observe(double v) {
  const auto it = std::lower_bound(bounds_->begin(), bounds_->end(), v);
  ++counts_[static_cast<std::size_t>(it - bounds_->begin())];
  ++count_;
  sum_ += v;
}

namespace detail {

/// Histograms per bucket chunk: small enough that a one-series family
/// wastes little, large enough that chunk pointers cost nothing.
constexpr std::size_t kBucketChunkRows = 64;

/// A series' labels with the component interned.
struct SeriesKey {
  std::uint64_t node{0};
  std::int64_t cell{-1};
  std::uint32_t component{0};

  bool operator==(const SeriesKey&) const = default;
};

/// Heap bytes a string owns beyond its own object (0 when the
/// small-string buffer holds it).
std::size_t heap_bytes(const std::string& s) {
  const auto* data = reinterpret_cast<const std::byte*>(s.data());
  const auto* self = reinterpret_cast<const std::byte*>(&s);
  const bool inline_buffer = data >= self && data < self + sizeof(s);
  return inline_buffer ? 0 : s.capacity() + 1;
}

/// Heap bytes of a deque, estimated for libstdc++'s layout: 512-byte
/// element blocks (one element per block for larger ones), one of them
/// past the last element, and a map of at least 8 block pointers.
template <typename T>
std::size_t heap_bytes(const std::deque<T>& d) {
  constexpr std::size_t per_block = sizeof(T) < 512 ? 512 / sizeof(T) : 1;
  const std::size_t blocks = d.size() / per_block + 1;
  return blocks * per_block * sizeof(T) +
         std::max<std::size_t>(8, blocks + 2) * sizeof(void*);
}

/// Grows `v` geometrically if it is full, so that the next push_back or
/// insert of one element cannot throw.
template <typename T>
void reserve_one(std::vector<T>& v) {
  if (v.size() == v.capacity()) {
    v.reserve(std::max<std::size_t>(8, 2 * v.size()));
  }
}

/// find_or_add's payload builder for counters and gauges.
constexpr auto emplace_default = [](auto& /*family*/, auto& column) -> auto& {
  return column.emplace_back();
};

}  // namespace detail

struct MetricsRegistry::Family {
  /// Payload column, indexed by Kind; a family uses only its own.
  using Column = std::variant<std::deque<Counter>, std::deque<Gauge>,
                              std::deque<Histogram>>;

  Family(std::string_view n, Kind kind, std::vector<double> b)
      : name(n), bounds(std::move(b)), payloads(column_of(kind)) {}

  static Column column_of(Kind kind) {
    switch (kind) {
      case Kind::counter: return Column{std::in_place_index<0>};
      case Kind::gauge: return Column{std::in_place_index<1>};
      case Kind::histogram: return Column{std::in_place_index<2>};
    }
    throw std::logic_error("MetricsRegistry: unknown kind");
  }

  Kind kind() const { return static_cast<Kind>(payloads.index()); }
  template <typename T>
  std::deque<T>& column() {
    return std::get<std::deque<T>>(payloads);
  }
  template <typename T>
  const std::deque<T>& column() const {
    return std::get<std::deque<T>>(payloads);
  }

  /// Bucket counts for the next histogram row, bounds.size() + 1 of
  /// them, in chunks of kBucketChunkRows rows that never move.
  std::uint64_t* next_buckets() {
    const std::size_t width = bounds.size() + 1;
    const std::size_t row = column<Histogram>().size();
    if (row / detail::kBucketChunkRows == bucket_chunks.size()) {
      bucket_chunks.push_back(
          std::make_unique<std::uint64_t[]>(detail::kBucketChunkRows * width));
    }
    return bucket_chunks[row / detail::kBucketChunkRows].get() +
           (row % detail::kBucketChunkRows) * width;
  }

  std::size_t bytes_reserved() const {
    const std::size_t column_bytes = std::visit(
        [](const auto& column) { return detail::heap_bytes(column); },
        payloads);
    return sizeof(Family) + detail::heap_bytes(name) +
           bounds.capacity() * sizeof(double) + detail::heap_bytes(keys) +
           order.capacity() * sizeof(std::uint32_t) + column_bytes +
           bucket_chunks.capacity() * sizeof(bucket_chunks[0]) +
           bucket_chunks.size() * detail::kBucketChunkRows *
               (bounds.size() + 1) * sizeof(std::uint64_t);
  }

  std::string name;
  std::vector<double> bounds;  ///< Histograms only.
  std::deque<detail::SeriesKey> keys;  ///< By row (registration order).
  /// Rows sorted by (node, cell, component string): the snapshot order.
  std::vector<std::uint32_t> order;
  Column payloads;  ///< By row.
  std::vector<std::unique_ptr<std::uint64_t[]>> bucket_chunks;
};

MetricsRegistry::MetricsRegistry() = default;
MetricsRegistry::~MetricsRegistry() = default;

MetricsRegistry::Family& MetricsRegistry::family_of(
    std::string_view name, Kind kind, const std::vector<double>* bounds) {
  const auto& families = families_;
  const auto it = std::lower_bound(
      families_by_name_.begin(), families_by_name_.end(), name,
      [&families](std::uint32_t id, std::string_view n) {
        return families[id]->name < n;
      });
  if (it != families_by_name_.end() && families_[*it]->name == name) {
    Family& family = *families_[*it];
    if (family.kind() != kind) {
      throw std::logic_error("MetricsRegistry: '" + family.name +
                             "' already registered as a different kind");
    }
    if (bounds != nullptr && *bounds != family.bounds) {
      throw std::logic_error("MetricsRegistry: '" + family.name +
                             "' already registered with other bounds");
    }
    return family;
  }
  if (bounds != nullptr && !std::is_sorted(bounds->begin(), bounds->end())) {
    throw std::invalid_argument("Histogram: bucket bounds must be sorted");
  }
  auto family = std::make_unique<Family>(
      name, kind, bounds != nullptr ? *bounds : std::vector<double>{});
  const auto at = it - families_by_name_.begin();
  detail::reserve_one(families_);
  detail::reserve_one(families_by_name_);
  const auto id = static_cast<std::uint32_t>(families_.size());
  families_.push_back(std::move(family));
  families_by_name_.insert(families_by_name_.begin() + at, id);
  return *families_.back();
}

std::uint32_t MetricsRegistry::intern_component(std::string_view component) {
  const auto& components = components_;
  const auto it = std::lower_bound(
      components_by_name_.begin(), components_by_name_.end(), component,
      [&components](std::uint32_t id, std::string_view c) {
        return components[id] < c;
      });
  if (it != components_by_name_.end() && components_[*it] == component) {
    return *it;
  }
  std::string interned(component);
  const auto at = it - components_by_name_.begin();
  detail::reserve_one(components_);
  detail::reserve_one(components_by_name_);
  const auto id = static_cast<std::uint32_t>(components_.size());
  components_.push_back(std::move(interned));
  components_by_name_.insert(components_by_name_.begin() + at, id);
  return id;
}

template <typename T, typename Add>
T& MetricsRegistry::find_or_add(std::string_view name, Kind kind,
                                const Labels& labels,
                                const std::vector<double>* bounds, Add add) {
  Family& family = family_of(name, kind, bounds);
  std::deque<T>& column = family.column<T>();
  const detail::SeriesKey key{labels.node, labels.cell,
                              intern_component(labels.component)};
  // Snapshot order: components compare by string, not by interned id.
  const auto& components = components_;
  const auto less = [&components](const detail::SeriesKey& a,
                                  const detail::SeriesKey& b) {
    if (a.node != b.node) return a.node < b.node;
    if (a.cell != b.cell) return a.cell < b.cell;
    return a.component != b.component &&
           components[a.component] < components[b.component];
  };
  // Build registers nodes in ascending order, so a new series usually
  // sorts last and appends without a search.
  auto pos = family.order.end();
  if (!family.order.empty() && !less(family.keys[family.order.back()], key)) {
    pos = std::lower_bound(family.order.begin(), family.order.end(), key,
                           [&](std::uint32_t row, const detail::SeriesKey& k) {
                             return less(family.keys[row], k);
                           });
    if (family.keys[*pos] == key) return column[*pos];
  }
  // Commit the row only once its payload exists, so that a throwing
  // allocation leaves the family as it was: grow the index first and
  // take the key back if the payload cannot be built.
  const auto at = pos - family.order.begin();
  detail::reserve_one(family.order);
  const auto row = static_cast<std::uint32_t>(family.keys.size());
  family.keys.push_back(key);
  T* payload = nullptr;
  try {
    payload = &add(family, column);
  } catch (...) {
    family.keys.pop_back();
    throw;
  }
  family.order.insert(family.order.begin() + at, row);
  ++size_;
  return *payload;
}

Counter& MetricsRegistry::counter(std::string_view name, const Labels& labels) {
  const MutexLock lock(mutex_);
  return find_or_add<Counter>(name, Kind::counter, labels, nullptr,
                              detail::emplace_default);
}

Gauge& MetricsRegistry::gauge(std::string_view name, const Labels& labels) {
  const MutexLock lock(mutex_);
  return find_or_add<Gauge>(name, Kind::gauge, labels, nullptr,
                            detail::emplace_default);
}

Gauge& MetricsRegistry::gauge_fn(std::string_view name, const Labels& labels,
                                 std::function<double()> fn) {
  const MutexLock lock(mutex_);
  Gauge& g = find_or_add<Gauge>(name, Kind::gauge, labels, nullptr,
                                detail::emplace_default);
  g.fn_ = std::move(fn);
  return g;
}

Histogram& MetricsRegistry::histogram(std::string_view name,
                                      std::vector<double> bounds,
                                      const Labels& labels) {
  const MutexLock lock(mutex_);
  return find_or_add<Histogram>(
      name, Kind::histogram, labels, &bounds,
      [](Family& f, std::deque<Histogram>& h) -> Histogram& {
        std::uint64_t* counts = f.next_buckets();
        return h.emplace_back(f.bounds, counts);
      });
}

std::size_t MetricsRegistry::size() const {
  const MutexLock lock(mutex_);
  return size_;
}

std::size_t MetricsRegistry::bytes_reserved() const {
  const MutexLock lock(mutex_);
  std::size_t bytes =
      families_.capacity() * sizeof(families_[0]) +
      families_by_name_.capacity() * sizeof(std::uint32_t) +
      components_.capacity() * sizeof(std::string) +
      components_by_name_.capacity() * sizeof(std::uint32_t);
  for (const auto& family : families_) bytes += family->bytes_reserved();
  for (const std::string& c : components_) bytes += detail::heap_bytes(c);
  return bytes;
}

Snapshot MetricsRegistry::snapshot() const {
  const MutexLock lock(mutex_);
  Snapshot snap;
  snap.entries.reserve(size_);
  for (const std::uint32_t id : families_by_name_) {
    const Family& f = *families_[id];
    for (const std::uint32_t row : f.order) {
      const detail::SeriesKey& key = f.keys[row];
      SnapshotEntry entry;
      entry.name = f.name;
      entry.labels = Labels{key.node, key.cell, components_[key.component]};
      entry.kind = f.kind();
      switch (entry.kind) {
        case Kind::counter:
          entry.count = f.column<Counter>()[row].value();
          break;
        case Kind::gauge: entry.value = f.column<Gauge>()[row].value(); break;
        case Kind::histogram: {
          const Histogram& h = f.column<Histogram>()[row];
          const auto counts = h.bucket_counts();
          entry.histogram = HistogramSnapshot{
              f.bounds, {counts.begin(), counts.end()}, h.count(), h.sum()};
          break;
        }
      }
      snap.entries.push_back(std::move(entry));
    }
  }
  return snap;
}

const SnapshotEntry* Snapshot::find(std::string_view name,
                                    const Labels& labels) const {
  for (const auto& e : entries) {
    if (e.name == name && e.labels == labels) return &e;
  }
  return nullptr;
}

std::uint64_t Snapshot::counter(std::string_view name,
                                const Labels& labels) const {
  const SnapshotEntry* e = find(name, labels);
  return e != nullptr && e->kind == Kind::counter ? e->count : 0;
}

double Snapshot::gauge(std::string_view name, const Labels& labels) const {
  const SnapshotEntry* e = find(name, labels);
  return e != nullptr && e->kind == Kind::gauge ? e->value : 0.0;
}

std::uint64_t Snapshot::counter_total(std::string_view name) const {
  std::uint64_t total = 0;
  for (const auto& e : entries) {
    if (e.kind == Kind::counter && e.name == name) total += e.count;
  }
  return total;
}

double Snapshot::gauge_total(std::string_view name) const {
  double total = 0.0;
  for (const auto& e : entries) {
    if (e.kind == Kind::gauge && e.name == name) total += e.value;
  }
  return total;
}

Snapshot merge(const std::vector<Snapshot>& parts) {
  // Keyed accumulation keeps the deterministic sorted order regardless
  // of which parts contribute which series.
  std::map<std::tuple<std::string, std::uint64_t, std::int64_t, std::string>,
           SnapshotEntry>
      merged;
  for (const Snapshot& part : parts) {
    for (const SnapshotEntry& e : part.entries) {
      const auto key = std::make_tuple(e.name, e.labels.node, e.labels.cell,
                                       e.labels.component);
      auto it = merged.find(key);
      if (it == merged.end()) {
        merged.emplace(key, e);
        continue;
      }
      SnapshotEntry& acc = it->second;
      if (acc.kind != e.kind) {
        throw std::logic_error("metrics::merge: kind mismatch for '" +
                               e.name + "'");
      }
      switch (e.kind) {
        case Kind::counter: acc.count += e.count; break;
        case Kind::gauge: acc.value += e.value; break;
        case Kind::histogram: {
          if (acc.histogram.bounds != e.histogram.bounds) {
            throw std::logic_error(
                "metrics::merge: histogram bounds mismatch for '" + e.name +
                "'");
          }
          for (std::size_t i = 0; i < acc.histogram.counts.size(); ++i) {
            acc.histogram.counts[i] += e.histogram.counts[i];
          }
          acc.histogram.count += e.histogram.count;
          acc.histogram.sum += e.histogram.sum;
          break;
        }
      }
    }
  }
  Snapshot out;
  out.entries.reserve(merged.size());
  for (auto& [key, entry] : merged) out.entries.push_back(std::move(entry));
  return out;
}

}  // namespace d2dhb::metrics

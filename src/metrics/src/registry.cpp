#include "metrics/registry.hpp"

#include <algorithm>
#include <bit>
#include <cstddef>
#include <map>
#include <new>
#include <ranges>
#include <stdexcept>
#include <tuple>
#include <type_traits>
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

/// Row chunks grow 8, 16, 32, 64 rows and then stay at 64, so a one-row
/// column holds 8 rows and any column wastes at most 63 rows (1 KB of
/// counters), while a 100k-row column keeps 1,565 chunk pointers.
constexpr std::size_t kFirstChunkRows = 8;
constexpr std::size_t kRampChunks = 4;
constexpr std::size_t kMaxChunkRows = kFirstChunkRows << (kRampChunks - 1);
constexpr std::size_t kRampRows = kFirstChunkRows * ((1u << kRampChunks) - 1);

constexpr std::size_t chunk_rows(std::size_t chunk) {
  return chunk < kRampChunks ? kFirstChunkRows << chunk : kMaxChunkRows;
}

struct Slot {
  std::size_t chunk;
  std::size_t offset;
};

/// Where row `row` lives: chunk k of the ramp starts at row 8·(2^k − 1).
constexpr Slot slot_of(std::size_t row) {
  if (row < kRampRows) {
    const std::size_t chunk = std::bit_width(row / kFirstChunkRows + 1) - 1;
    return {chunk, row - kFirstChunkRows * ((std::size_t{1} << chunk) - 1)};
  }
  return {kRampChunks + (row - kRampRows) / kMaxChunkRows,
          (row - kRampRows) % kMaxChunkRows};
}
static_assert(slot_of(kRampRows - 1).chunk == kRampChunks - 1 &&
              slot_of(kRampRows - 1).offset == kMaxChunkRows - 1 &&
              slot_of(kRampRows).chunk == kRampChunks &&
              slot_of(kRampRows).offset == 0);

/// Grows `v` geometrically (to at least `least` elements) if it is
/// full, so that the next push_back or insert of one element cannot
/// throw.
template <typename T>
void reserve_one(std::vector<T>& v, std::size_t least = 8) {
  if (v.size() == v.capacity()) {
    v.reserve(std::max(least, 2 * v.size()));
  }
}

/// A bound gauge's payload: the object its family's reader reads.
struct BoundGauge {
  void* owner{nullptr};
};

/// One label set's series: (node, payload) rows in registration order,
/// in chunks that never move a row. No row is ever removed, and every
/// payload is trivially destructible, so a chunk is freed unrun.
template <typename T>
class Rows {
 public:
  struct Row {
    std::uint64_t node;
    T payload;
  };
  static_assert(std::is_trivially_destructible_v<Row>);

  std::size_t size() const { return size_; }
  Row& operator[](std::size_t row) {
    const Slot s = slot_of(row);
    return chunks_[s.chunk].get()[s.offset];
  }
  const Row& operator[](std::size_t row) const {
    const Slot s = slot_of(row);
    return chunks_[s.chunk].get()[s.offset];
  }

  /// Makes room for one more row, so that the next emplace cannot throw.
  void reserve_one() {
    const std::size_t chunk = slot_of(size_).chunk;
    if (chunk < chunks_.size()) return;
    detail::reserve_one(chunks_, 4);
    chunks_.emplace_back(
        static_cast<Row*>(::operator new(chunk_rows(chunk) * sizeof(Row))));
  }
  /// Appends a row; reserve_one() first.
  template <typename... Args>
  Row& emplace(std::uint64_t node, Args&&... args) {
    const Slot s = slot_of(size_);
    Row* row = ::new (chunks_[s.chunk].get() + s.offset)
        Row{node, T(std::forward<Args>(args)...)};
    ++size_;
    return *row;
  }

  std::size_t bytes_reserved() const {
    std::size_t bytes = chunks_.capacity() * sizeof(chunks_[0]);
    for (std::size_t c = 0; c < chunks_.size(); ++c) {
      bytes += chunk_rows(c) * sizeof(Row);
    }
    return bytes;
  }

 private:
  struct FreeChunk {
    void operator()(Row* chunk) const { ::operator delete(chunk); }
  };
  std::vector<std::unique_ptr<Row, FreeChunk>> chunks_;
  std::size_t size_{0};
};

/// A family's series under one (cell, component) label set.
template <typename T>
struct Column {
  std::int64_t cell{-1};
  std::uint32_t component{0};
  Rows<T> rows;
  /// Rows sorted by node. Empty while rows arrived in node order (then
  /// row order is node order); built the first time a node arrives out
  /// of order.
  std::vector<std::uint32_t> order;

  /// The row at position `i` of node order.
  std::size_t row_at(std::size_t i) const {
    return order.empty() ? i : order[i];
  }

  std::size_t bytes_reserved() const {
    return rows.bytes_reserved() + order.capacity() * sizeof(std::uint32_t);
  }
};

/// A family's columns, sorted by (cell, component string).
template <typename T>
using Columns = std::vector<Column<T>>;

/// Heap bytes a string owns beyond its own object (0 when the
/// small-string buffer holds it).
std::size_t heap_bytes(const std::string& s) {
  const auto* data = reinterpret_cast<const std::byte*>(s.data());
  const auto* self = reinterpret_cast<const std::byte*>(&s);
  const bool inline_buffer = data >= self && data < self + sizeof(s);
  return inline_buffer ? 0 : s.capacity() + 1;
}

/// Calls `emit(column, row)` for every row of `columns` in snapshot
/// order: node, then label set (the columns' own order).
template <typename T, typename Emit>
void for_each_in_order(const Columns<T>& columns, Emit emit) {
  if (columns.size() <= 1) {
    for (const Column<T>& column : columns) {
      for (std::size_t i = 0; i < column.rows.size(); ++i) {
        emit(column, column.rows[column.row_at(i)]);
      }
    }
    return;
  }
  struct Ref {
    std::uint64_t node;
    std::uint32_t column;
    std::uint32_t row;
  };
  std::vector<Ref> refs;
  for (std::size_t c = 0; c < columns.size(); ++c) {
    const Column<T>& column = columns[c];
    for (std::size_t i = 0; i < column.rows.size(); ++i) {
      const std::size_t row = column.row_at(i);
      refs.push_back({column.rows[row].node, static_cast<std::uint32_t>(c),
                      static_cast<std::uint32_t>(row)});
    }
  }
  std::sort(refs.begin(), refs.end(), [](const Ref& a, const Ref& b) {
    return a.node != b.node ? a.node < b.node : a.column < b.column;
  });
  for (const Ref& ref : refs) {
    const Column<T>& column = columns[ref.column];
    emit(column, column.rows[ref.row]);
  }
}

}  // namespace detail

struct MetricsRegistry::Family {
  /// Columns by payload type; the index is family_of's `payload`.
  using AnyColumns =
      std::variant<detail::Columns<Counter>, detail::Columns<Gauge>,
                   detail::Columns<detail::BoundGauge>,
                   detail::Columns<Histogram>>;

  /// The AnyColumns index of payload type T.
  template <typename T>
  static constexpr std::size_t payload_of =
      std::is_same_v<T, Counter>              ? 0
      : std::is_same_v<T, Gauge>              ? 1
      : std::is_same_v<T, detail::BoundGauge> ? 2
                                              : 3;

  Family(std::string_view n, std::size_t payload, std::vector<double> b,
         GaugeReader r)
      : name(n),
        bounds(std::move(b)),
        reader(r),
        columns(columns_of(payload)) {}

  static AnyColumns columns_of(std::size_t payload) {
    switch (payload) {
      case 0: return AnyColumns{std::in_place_index<0>};
      case 1: return AnyColumns{std::in_place_index<1>};
      case 2: return AnyColumns{std::in_place_index<2>};
      case 3: return AnyColumns{std::in_place_index<3>};
    }
    throw std::logic_error("MetricsRegistry: unknown payload");
  }

  static Kind kind_of(std::size_t payload) {
    switch (payload) {
      case 0: return Kind::counter;
      case 3: return Kind::histogram;
      default: return Kind::gauge;
    }
  }
  Kind kind() const { return kind_of(columns.index()); }

  /// Bucket counts for the next histogram row, bounds.size() + 1 of
  /// them, in chunks of kBucketChunkRows rows that never move.
  std::uint64_t* next_buckets() {
    const std::size_t width = bounds.size() + 1;
    if (histograms / detail::kBucketChunkRows == bucket_chunks.size()) {
      detail::reserve_one(bucket_chunks);
      bucket_chunks.push_back(
          std::make_unique<std::uint64_t[]>(detail::kBucketChunkRows * width));
    }
    return bucket_chunks[histograms / detail::kBucketChunkRows].get() +
           (histograms % detail::kBucketChunkRows) * width;
  }

  std::size_t bytes_reserved() const {
    const std::size_t column_bytes = std::visit(
        [](const auto& cols) {
          std::size_t bytes = cols.capacity() * sizeof(cols[0]);
          for (const auto& column : cols) bytes += column.bytes_reserved();
          return bytes;
        },
        columns);
    return sizeof(Family) + detail::heap_bytes(name) +
           bounds.capacity() * sizeof(double) + column_bytes +
           bucket_chunks.capacity() * sizeof(bucket_chunks[0]) +
           bucket_chunks.size() * detail::kBucketChunkRows *
               (bounds.size() + 1) * sizeof(std::uint64_t);
  }

  std::string name;
  std::vector<double> bounds;  ///< Histograms only.
  GaugeReader reader;          ///< Bound gauges only.
  AnyColumns columns;
  std::vector<std::unique_ptr<std::uint64_t[]>> bucket_chunks;
  std::size_t histograms{0};  ///< Histogram rows over all columns.
};

namespace detail {

/// find_or_add's row builder for every payload but histograms.
constexpr auto emplace_row = [](auto& /*family*/, auto& rows,
                                std::uint64_t node) -> auto& {
  return rows.emplace(node).payload;
};

}  // namespace detail

MetricsRegistry::MetricsRegistry() = default;
MetricsRegistry::~MetricsRegistry() = default;

MetricsRegistry::Family& MetricsRegistry::family_of(
    std::string_view name, std::size_t payload,
    const std::vector<double>* bounds, const GaugeReader& reader) {
  const auto& families = families_;
  const auto it = std::lower_bound(
      families_by_name_.begin(), families_by_name_.end(), name,
      [&families](std::uint32_t id, std::string_view n) {
        return families[id]->name < n;
      });
  if (it != families_by_name_.end() && families_[*it]->name == name) {
    Family& family = *families_[*it];
    if (family.columns.index() != payload) {
      throw std::logic_error(
          "MetricsRegistry: '" + family.name + "' already registered as " +
          (family.kind() == Family::kind_of(payload)
               ? "the other gauge form (set or bound)"
               : "a different kind"));
    }
    if (bounds != nullptr && *bounds != family.bounds) {
      throw std::logic_error("MetricsRegistry: '" + family.name +
                             "' already registered with other bounds");
    }
    if (reader != family.reader) {
      throw std::logic_error("MetricsRegistry: '" + family.name +
                             "' already bound with another reader");
    }
    return family;
  }
  if (bounds != nullptr && !std::is_sorted(bounds->begin(), bounds->end())) {
    throw std::invalid_argument("Histogram: bucket bounds must be sorted");
  }
  auto family = std::make_unique<Family>(
      name, payload, bounds != nullptr ? *bounds : std::vector<double>{},
      reader);
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
T& MetricsRegistry::find_or_add(std::string_view name, const Labels& labels,
                                const std::vector<double>* bounds,
                                const GaugeReader& reader, Add add) {
  Family& family = family_of(name, Family::payload_of<T>, bounds, reader);
  const std::uint32_t component = intern_component(labels.component);
  auto& columns = std::get<detail::Columns<T>>(family.columns);
  // Label sets are few (one for a per-phone family), so a linear scan
  // finds the column; a new one goes where (cell, component string)
  // sorts, which is the snapshot's tie order after node.
  auto col = std::find_if(columns.begin(), columns.end(), [&](const auto& c) {
    return c.cell == labels.cell && c.component == component;
  });
  if (col == columns.end()) {
    const auto& components = components_;
    const auto at = std::partition_point(
                        columns.begin(), columns.end(),
                        [&](const detail::Column<T>& c) {
                          return c.cell != labels.cell
                                     ? c.cell < labels.cell
                                     : components[c.component] <
                                           labels.component;
                        }) -
                    columns.begin();
    detail::reserve_one(columns, 1);
    col = columns.insert(columns.begin() + at,
                         detail::Column<T>{labels.cell, component, {}, {}});
  }
  detail::Column<T>& column = *col;
  detail::Rows<T>& rows = column.rows;
  const std::uint64_t node = labels.node;
  const std::size_t count = rows.size();
  // Build registers nodes in ascending order, so a new series usually
  // sorts last and appends without a search.
  std::size_t at = count;
  if (count > 0 && !(rows[column.row_at(count - 1)].node < node)) {
    at = *std::ranges::partition_point(
        std::views::iota(std::size_t{0}, count),
        [&](std::size_t i) { return rows[column.row_at(i)].node < node; });
    auto& found = rows[column.row_at(at)];
    if (found.node == node) return found.payload;
  }
  // Make room for everything first, so that a throwing allocation
  // adds no series: the row slot, the index entry (built from the row
  // order the first time a node arrives out of order) and whatever
  // `add` allocates before it emplaces.
  rows.reserve_one();
  const bool indexed = at != count || !column.order.empty();
  if (indexed) {
    if (column.order.empty()) {
      std::vector<std::uint32_t> order;
      order.reserve(std::max<std::size_t>(8, 2 * count));
      for (std::size_t row = 0; row < count; ++row) {
        order.push_back(static_cast<std::uint32_t>(row));
      }
      column.order = std::move(order);
    }
    detail::reserve_one(column.order);
  }
  T& payload = add(family, rows, node);
  if (indexed) {
    column.order.insert(column.order.begin() + static_cast<std::ptrdiff_t>(at),
                        static_cast<std::uint32_t>(count));
  }
  ++size_;
  return payload;
}

Counter& MetricsRegistry::counter(std::string_view name, const Labels& labels) {
  const MutexLock lock(mutex_);
  return find_or_add<Counter>(name, labels, nullptr, {}, detail::emplace_row);
}

Gauge& MetricsRegistry::gauge(std::string_view name, const Labels& labels) {
  const MutexLock lock(mutex_);
  return find_or_add<Gauge>(name, labels, nullptr, {}, detail::emplace_row);
}

void MetricsRegistry::bind_gauge(std::string_view name, const Labels& labels,
                                 void* owner, GaugeReader reader) {
  const MutexLock lock(mutex_);
  find_or_add<detail::BoundGauge>(name, labels, nullptr, reader,
                                  detail::emplace_row)
      .owner = owner;
}

Histogram& MetricsRegistry::histogram(std::string_view name,
                                      std::vector<double> bounds,
                                      const Labels& labels) {
  const MutexLock lock(mutex_);
  return find_or_add<Histogram>(
      name, labels, &bounds, {},
      [](Family& family, detail::Rows<Histogram>& rows,
         std::uint64_t node) -> Histogram& {
        std::uint64_t* counts = family.next_buckets();
        ++family.histograms;
        return rows.emplace(node, family.bounds, counts).payload;
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
  const auto& components = components_;
  for (const std::uint32_t id : families_by_name_) {
    const Family& f = *families_[id];
    const auto value_of = [&f](SnapshotEntry& entry, const auto& payload) {
      using T = std::decay_t<decltype(payload)>;
      if constexpr (std::is_same_v<T, Counter>) {
        entry.count = payload.value();
      } else if constexpr (std::is_same_v<T, Gauge>) {
        entry.value = payload.value();
      } else if constexpr (std::is_same_v<T, detail::BoundGauge>) {
        entry.value = f.reader(payload.owner);
      } else {
        const auto counts = payload.bucket_counts();
        entry.histogram = HistogramSnapshot{
            f.bounds, {counts.begin(), counts.end()}, payload.count(),
            payload.sum()};
      }
    };
    std::visit(
        [&](const auto& columns) {
          detail::for_each_in_order(
              columns, [&](const auto& column, const auto& row) {
                SnapshotEntry entry;
                entry.name = f.name;
                entry.labels = Labels{row.node, column.cell,
                                      components[column.component]};
                entry.kind = f.kind();
                value_of(entry, row.payload);
                snap.entries.push_back(std::move(entry));
              });
        },
        f.columns);
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

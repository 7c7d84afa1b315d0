// Structured snapshot export: JSON and CSV with deterministic key order
// and locale-independent number formatting (common/json), so a snapshot
// of a seeded run serializes byte-identically regardless of thread count.
#pragma once

#include <iosfwd>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "metrics/registry.hpp"

namespace d2dhb::metrics {

/// The deterministic/runtime partition rule: series named under the
/// `runtime/` prefix carry wall-clock-derived profiling data (engine
/// span summaries — sim/profiler.hpp) and are legitimately
/// nondeterministic. The deterministic exporters below drop them
/// explicitly, so a profiled run's export stays byte-identical to an
/// unprofiled one; export_runtime_json is the only path that writes
/// them.
bool is_runtime_metric(std::string_view name);

/// Writes one snapshot as a JSON object:
///   {"schema":"d2dhb.metrics.v1","metrics":[{...}, ...]}
/// Entries keep the snapshot's sorted order; unset label dimensions are
/// omitted. `runtime/` entries are excluded (see is_runtime_metric) —
/// this export is the byte-identical determinism surface.
void export_json(const Snapshot& snapshot, std::ostream& os);

/// Flat CSV: name,kind,node,cell,component,value,count,sum — one row per
/// series (histograms report count/sum/mean).
/// Excludes `runtime/` entries, like export_json.
void export_csv(const Snapshot& snapshot, std::ostream& os);

/// The runtime side of the partition:
///   {"schema":"d2dhb.metrics.runtime.v1","metrics":[{...}, ...]}
/// Only `runtime/` entries — wall-clock profiling data, never diffed.
void export_runtime_json(const Snapshot& snapshot, std::ostream& os);

/// A labeled group of snapshots — e.g. the arms of an experiment or the
/// points of a sweep.
using NamedSnapshots = std::vector<std::pair<std::string, Snapshot>>;

/// Multi-section report:
///   {"schema":"d2dhb.metrics-report.v1","runs":[{"label":...,
///    "metrics":{...}}, ...]}
void export_json_report(const NamedSnapshots& sections, std::ostream& os);

/// Writes a report to `path` (format by extension: ".csv" writes each
/// section's CSV concatenated under "# label" comments, anything else
/// the JSON report). Returns false (with a stderr warning) if the file
/// cannot be opened.
bool write_report(const NamedSnapshots& sections, const std::string& path);

}  // namespace d2dhb::metrics

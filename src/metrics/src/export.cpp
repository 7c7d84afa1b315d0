#include "metrics/export.hpp"

#include <fstream>
#include <iostream>
#include <limits>
#include <ostream>

#include "common/json.hpp"

namespace d2dhb::metrics {

namespace {

void write_labels(const Labels& labels, std::ostream& os) {
  os << '{';
  bool first = true;
  auto sep = [&] {
    if (!first) os << ',';
    first = false;
  };
  if (labels.node != 0) {
    sep();
    os << "\"node\":" << json::number(labels.node);
  }
  if (labels.cell >= 0) {
    sep();
    os << "\"cell\":" << json::number(labels.cell);
  }
  if (!labels.component.empty()) {
    sep();
    os << "\"component\":\"" << json::escape(labels.component) << '"';
  }
  os << '}';
}

void write_entry(const SnapshotEntry& e, std::ostream& os) {
  os << "{\"name\":\"" << json::escape(e.name) << "\",\"kind\":\""
     << to_string(e.kind) << "\",\"labels\":";
  write_labels(e.labels, os);
  switch (e.kind) {
    case Kind::counter:
      os << ",\"value\":" << json::number(e.count);
      break;
    case Kind::gauge:
      os << ",\"value\":" << json::number(e.value);
      break;
    case Kind::histogram: {
      os << ",\"count\":" << json::number(e.histogram.count)
         << ",\"sum\":" << json::number(e.histogram.sum) << ",\"buckets\":[";
      for (std::size_t i = 0; i < e.histogram.counts.size(); ++i) {
        if (i > 0) os << ',';
        os << "{\"le\":";
        if (i < e.histogram.bounds.size()) {
          os << json::number(e.histogram.bounds[i]);
        } else {
          os << "\"inf\"";
        }
        os << ",\"count\":" << json::number(e.histogram.counts[i]) << '}';
      }
      os << ']';
      break;
    }
  }
  os << '}';
}

/// Shared body of the two JSON exporters: one partition, one schema.
void export_json_partition(const Snapshot& snapshot, std::ostream& os,
                           const char* schema, bool runtime) {
  os << "{\"schema\":\"" << schema << "\",\"metrics\":[";
  bool first = true;
  for (const SnapshotEntry& e : snapshot.entries) {
    if (is_runtime_metric(e.name) != runtime) continue;
    if (!first) os << ',';
    first = false;
    os << "\n";
    write_entry(e, os);
  }
  os << "\n]}";
}

}  // namespace

bool is_runtime_metric(std::string_view name) {
  return name.rfind("runtime/", 0) == 0;
}

void export_json(const Snapshot& snapshot, std::ostream& os) {
  export_json_partition(snapshot, os, "d2dhb.metrics.v1",
                        /*runtime=*/false);
}

void export_runtime_json(const Snapshot& snapshot, std::ostream& os) {
  export_json_partition(snapshot, os, "d2dhb.metrics.runtime.v1",
                        /*runtime=*/true);
}

void export_csv(const Snapshot& snapshot, std::ostream& os) {
  os << "name,kind,node,cell,component,value,count,sum\n";
  for (const SnapshotEntry& e : snapshot.entries) {
    if (is_runtime_metric(e.name)) continue;
    os << e.name << ',' << to_string(e.kind) << ',';
    if (e.labels.node != 0) os << e.labels.node;
    os << ',';
    if (e.labels.cell >= 0) os << e.labels.cell;
    os << ',' << e.labels.component << ',';
    switch (e.kind) {
      case Kind::counter:
        os << json::number(e.count) << ',' << json::number(e.count) << ",";
        break;
      case Kind::gauge:
        os << json::number(e.value) << ",,";
        break;
      case Kind::histogram:
        os << json::number(e.histogram.count == 0
                               ? 0.0
                               : e.histogram.sum /
                                     static_cast<double>(e.histogram.count))
           << ',' << json::number(e.histogram.count) << ','
           << json::number(e.histogram.sum);
        break;
    }
    os << '\n';
  }
}

void export_json_report(const NamedSnapshots& sections, std::ostream& os) {
  os << "{\"schema\":\"d2dhb.metrics-report.v1\",\"runs\":[";
  for (std::size_t i = 0; i < sections.size(); ++i) {
    if (i > 0) os << ',';
    os << "\n{\"label\":\"" << json::escape(sections[i].first)
       << "\",\"metrics\":";
    export_json(sections[i].second, os);
    os << '}';
  }
  os << "\n]}\n";
}

bool write_report(const NamedSnapshots& sections, const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    std::cerr << "warning: cannot write metrics to " << path << '\n';
    return false;
  }
  const bool csv =
      path.size() >= 4 && path.compare(path.size() - 4, 4, ".csv") == 0;
  if (csv) {
    for (const auto& [label, snapshot] : sections) {
      out << "# " << label << '\n';
      export_csv(snapshot, out);
    }
  } else {
    export_json_report(sections, out);
  }
  return true;
}

}  // namespace d2dhb::metrics

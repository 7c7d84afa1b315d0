#include "metrics/export.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "metrics/registry.hpp"

namespace d2dhb::metrics {
namespace {

MetricsRegistry& small_registry(MetricsRegistry& reg) {
  reg.counter("hb.sent", {1, -1, "ue"}).inc(3);
  reg.gauge("battery", {1, -1, "phone"}).set(0.5);
  reg.histogram("bundle", {1.0, 2.0}).observe(2.0);
  return reg;
}

TEST(MetricsExport, JsonGolden) {
  MetricsRegistry reg;
  std::ostringstream os;
  export_json(small_registry(reg).snapshot(), os);
  EXPECT_EQ(
      os.str(),
      "{\"schema\":\"d2dhb.metrics.v1\",\"metrics\":[\n"
      "{\"name\":\"battery\",\"kind\":\"gauge\",\"labels\":{\"node\":1,"
      "\"component\":\"phone\"},\"value\":0.5},\n"
      "{\"name\":\"bundle\",\"kind\":\"histogram\",\"labels\":{},"
      "\"count\":1,\"sum\":2,\"buckets\":[{\"le\":1,\"count\":0},"
      "{\"le\":2,\"count\":1},{\"le\":\"inf\",\"count\":0}]},\n"
      "{\"name\":\"hb.sent\",\"kind\":\"counter\",\"labels\":{\"node\":1,"
      "\"component\":\"ue\"},\"value\":3}\n"
      "]}");
}

TEST(MetricsExport, CsvGolden) {
  MetricsRegistry reg;
  std::ostringstream os;
  export_csv(small_registry(reg).snapshot(), os);
  EXPECT_EQ(os.str(),
            "name,kind,node,cell,component,value,count,sum\n"
            "battery,gauge,1,,phone,0.5,,\n"
            "bundle,histogram,,,,2,1,2\n"
            "hb.sent,counter,1,,ue,3,3,\n");
}

TEST(MetricsExport, JsonReportWrapsSections) {
  MetricsRegistry a, b;
  a.counter("c").inc(1);
  b.counter("c").inc(2);
  std::ostringstream os;
  export_json_report({{"original", a.snapshot()}, {"d2d", b.snapshot()}},
                     os);
  const std::string out = os.str();
  EXPECT_EQ(out.find("{\"schema\":\"d2dhb.metrics-report.v1\",\"runs\":["),
            0u);
  EXPECT_NE(out.find("\"label\":\"original\""), std::string::npos);
  EXPECT_NE(out.find("\"label\":\"d2d\""), std::string::npos);
  // Section order is preserved.
  EXPECT_LT(out.find("\"label\":\"original\""),
            out.find("\"label\":\"d2d\""));
}

TEST(MetricsExport, EscapesStrings) {
  MetricsRegistry reg;
  reg.counter("weird\"name");
  std::ostringstream os;
  export_json(reg.snapshot(), os);
  EXPECT_NE(os.str().find("weird\\\"name"), std::string::npos);
}

TEST(MetricsExport, RuntimeNamespacePartition) {
  EXPECT_TRUE(is_runtime_metric("runtime/windows"));
  EXPECT_TRUE(is_runtime_metric("runtime/shard_busy_us"));
  EXPECT_FALSE(is_runtime_metric("hb.sent"));
  // Only the prefix counts — "runtime" must start the name.
  EXPECT_FALSE(is_runtime_metric("app/runtime/foo"));
  EXPECT_FALSE(is_runtime_metric("runtime_total"));
}

TEST(MetricsExport, DeterministicExportersDropRuntimeEntries) {
  MetricsRegistry reg;
  small_registry(reg);
  reg.gauge("runtime/wall_us").set(123.0);
  reg.counter("runtime/spans").inc(9);
  const Snapshot snapshot = reg.snapshot();

  // The deterministic JSON export is unchanged by the runtime entries:
  // byte-identical to a registry that never had them.
  MetricsRegistry clean;
  std::ostringstream with_runtime, without_runtime;
  export_json(snapshot, with_runtime);
  export_json(small_registry(clean).snapshot(), without_runtime);
  EXPECT_EQ(with_runtime.str(), without_runtime.str());

  std::ostringstream csv;
  export_csv(snapshot, csv);
  EXPECT_EQ(csv.str().find("runtime/"), std::string::npos);
}

TEST(MetricsExport, RuntimeExporterCarriesOnlyRuntimeEntries) {
  MetricsRegistry reg;
  small_registry(reg);
  reg.gauge("runtime/wall_us").set(123.0);
  std::ostringstream os;
  export_runtime_json(reg.snapshot(), os);
  const std::string out = os.str();
  EXPECT_EQ(out.find("{\"schema\":\"d2dhb.metrics.runtime.v1\""), 0u);
  EXPECT_NE(out.find("runtime/wall_us"), std::string::npos);
  EXPECT_EQ(out.find("hb.sent"), std::string::npos);
  EXPECT_EQ(out.find("battery"), std::string::npos);
}

TEST(MetricsExport, SnapshotExportIsReproducible) {
  // Two registries populated identically serialize byte-identically —
  // the per-run half of the thread-count determinism contract.
  MetricsRegistry a, b;
  std::ostringstream osa, osb;
  export_json(small_registry(a).snapshot(), osa);
  export_json(small_registry(b).snapshot(), osb);
  EXPECT_EQ(osa.str(), osb.str());
}

}  // namespace
}  // namespace d2dhb::metrics

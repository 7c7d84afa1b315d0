// Crowd builder equivalence: the benchmark times worlds it builds with
// build_crowd (run_d2d_crowd's build replayed call for call, because
// run_d2d_crowd does not split build from run). This test holds the
// replay to the program: for a small config of the crowd workload's
// shape, every deterministic CrowdMetrics field and the full
// deterministic metrics export must equal run_d2d_crowd's, at 1 and 2
// worker threads. Exits 0 when all match, 1 (naming each field) when
// not.
#include <iostream>
#include <sstream>
#include <string>

#include "metrics/export.hpp"
#include "world.hpp"

namespace {

namespace sc = d2dhb::scenario;

int failures = 0;

template <typename T>
void expect_eq(const std::string& where, const char* field, const T& got,
               const T& want) {
  if (got == want) return;
  ++failures;
  std::cerr << "MISMATCH " << where << ": " << field << '\n';
}

std::string export_of(const d2dhb::metrics::Snapshot& snap) {
  std::ostringstream os;
  d2dhb::metrics::export_json(snap, os);
  return os.str();
}

void check(const std::string& where, sc::CrowdConfig config,
           std::size_t threads) {
  config.threads = threads;
  const sc::CrowdMetrics want = sc::run_d2d_crowd(config);

  perfbench::SpanLog spans(false);
  const perfbench::BuiltWorld built = perfbench::build_crowd(config, spans);
  const d2dhb::sim::RunStats stats = d2dhb::sim::run(
      built.world->sim(), d2dhb::TimePoint{} + d2dhb::seconds(config.duration_s),
      perfbench::run_options(threads, nullptr));
  const sc::CrowdMetrics got =
      perfbench::crowd_metrics(*built.world, built, stats);

#define D2DHB_EXPECT_FIELD(f) expect_eq(where, #f, got.f, want.f)
  D2DHB_EXPECT_FIELD(phones);
  D2DHB_EXPECT_FIELD(relays);
  D2DHB_EXPECT_FIELD(total_l3);
  D2DHB_EXPECT_FIELD(peak_l3_per_10s);
  D2DHB_EXPECT_FIELD(l3_per_cell);
  D2DHB_EXPECT_FIELD(total_radio_uah);
  D2DHB_EXPECT_FIELD(mean_radio_uah_per_phone);
  D2DHB_EXPECT_FIELD(relay_radio_uah);
  D2DHB_EXPECT_FIELD(ue_radio_uah);
  D2DHB_EXPECT_FIELD(heartbeats_emitted);
  D2DHB_EXPECT_FIELD(heartbeats_delivered);
  D2DHB_EXPECT_FIELD(forwarded_via_d2d);
  D2DHB_EXPECT_FIELD(fallbacks);
  D2DHB_EXPECT_FIELD(link_losses);
  D2DHB_EXPECT_FIELD(server.delivered);
  D2DHB_EXPECT_FIELD(server.on_time);
  D2DHB_EXPECT_FIELD(server.late);
  D2DHB_EXPECT_FIELD(server.offline_events);
  D2DHB_EXPECT_FIELD(server.total_latency);
  D2DHB_EXPECT_FIELD(credits_issued);
  D2DHB_EXPECT_FIELD(relay_coverage);
  D2DHB_EXPECT_FIELD(sim_events);
  D2DHB_EXPECT_FIELD(cross_shard_posted);
  D2DHB_EXPECT_FIELD(cross_shard_delivered);
  D2DHB_EXPECT_FIELD(cross_min_slack_us);
  D2DHB_EXPECT_FIELD(arena_bytes_allocated);
  D2DHB_EXPECT_FIELD(arena_bytes_reserved);
  D2DHB_EXPECT_FIELD(arena_objects);
  D2DHB_EXPECT_FIELD(shard_events_executed);
  D2DHB_EXPECT_FIELD(shard_mailbox_delivered);
#undef D2DHB_EXPECT_FIELD
  expect_eq(where, "metrics export", export_of(got.metrics),
            export_of(want.metrics));
}

}  // namespace

int main() {
  // A small member of the crowd workload's family: the same shape code
  // path (static re-assessing crowd over several strips), scaled down to
  // run in well under a second.
  sc::CrowdConfig discovery =
      perfbench::make_workload("crowd_discovery", 3).crowd;
  discovery.phones = 400;
  discovery.area_m = 50.0 + 400.0;
  discovery.clusters = 1 + 400 / 24;
  discovery.duration_s = 600.0;

  for (const std::size_t threads : {1u, 2u}) {
    check("crowd_discovery(small) threads=" + std::to_string(threads),
          discovery, threads);
  }
  if (failures > 0) {
    std::cerr << failures << " field(s) differ from run_d2d_crowd\n";
    return 1;
  }
  std::cout << "crowd builder equivalence: ok\n";
  return 0;
}

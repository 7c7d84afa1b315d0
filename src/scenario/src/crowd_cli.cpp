#include "scenario/crowd_cli.hpp"

namespace d2dhb::scenario {

CliFlags::CliFlags(int argc, char** argv, int first) {
  for (int i = first; i < argc; ++i) args_.emplace_back(argv[i]);
  used_.assign(args_.size(), false);
}

bool CliFlags::has(const std::string& name) {
  for (std::size_t i = 0; i < args_.size(); ++i) {
    if (args_[i] == name) {
      used_[i] = true;
      return true;
    }
  }
  return false;
}

std::optional<std::string> CliFlags::value(const std::string& name) {
  for (std::size_t i = 0; i + 1 < args_.size(); ++i) {
    if (args_[i] == name) {
      used_[i] = used_[i + 1] = true;
      return args_[i + 1];
    }
  }
  return std::nullopt;
}

double CliFlags::number(const std::string& name, double fallback) {
  const auto v = value(name);
  return v ? std::stod(*v) : fallback;
}

std::vector<std::string> CliFlags::leftover() const {
  std::vector<std::string> left;
  for (std::size_t i = 0; i < args_.size(); ++i) {
    if (!used_[i] && args_[i].rfind("--", 0) == 0) left.push_back(args_[i]);
  }
  return left;
}

std::string apply_crowd_flags(CliFlags& flags, CrowdConfig& config) {
  config.phones = static_cast<std::size_t>(
      flags.number("--phones", static_cast<double>(config.phones)));
  config.relay_fraction =
      flags.number("--relay-fraction", config.relay_fraction);
  config.area_m = flags.number("--area", config.area_m);
  config.clusters = static_cast<std::size_t>(
      flags.number("--clusters", static_cast<double>(config.clusters)));
  config.duration_s = flags.number("--duration", config.duration_s);
  if (flags.has("--mobile")) config.mobile = true;
  config.cell_grid = static_cast<std::size_t>(
      flags.number("--cell-grid", static_cast<double>(config.cell_grid)));
  config.grid_cell_m = flags.number("--grid-cell", config.grid_cell_m);
  if (flags.has("--legacy-scan")) config.legacy_scan = true;
  config.reassess_interval_s =
      flags.number("--reassess", config.reassess_interval_s);
  config.seed = static_cast<std::uint64_t>(
      flags.number("--seed", static_cast<double>(config.seed)));
  const double threads = flags.number(
      "--threads", static_cast<double>(config.threads));
  if (threads < 1.0) {
    return "--threads must be at least 1";
  }
  config.threads = static_cast<std::size_t>(threads);
  if (flags.has("--heap-agents")) config.heap_agents = true;
  if (flags.has("--profile")) config.profile = true;
  if (const auto policy = flags.value("--policy")) {
    if (*policy == "greedy") {
      config.operator_policy = core::SelectionPolicy::coverage_greedy;
    } else if (*policy == "random") {
      config.operator_policy = core::SelectionPolicy::random;
    } else if (*policy == "density") {
      config.operator_policy = core::SelectionPolicy::density;
    } else if (*policy == "first-n") {
      config.operator_policy.reset();
    } else {
      return "unknown --policy: " + *policy;
    }
  }
  return {};
}

const char* crowd_flags_help() {
  return
      "    --phones N --relay-fraction F --area M --duration S\n"
      "    --clusters N (hotspots the phones gather around; default 4)\n"
      "    --mobile --policy greedy|random|density|first-n --seed S\n"
      "    --cell-grid N (n-cell grid over the area; 1 = single BS)\n"
      "    --grid-cell M (world-index cell size in meters; default =\n"
      "    D2D range) --legacy-scan (full-table scan medium, the\n"
      "    reference for the discovery index; seeded results are\n"
      "    identical)\n"
      "    --reassess S (connected UEs re-scan every S seconds and\n"
      "    switch to a markedly closer relay; 0 = off)\n"
      "    --threads N (worker threads driving the kernels; 1 = inline.\n"
      "    The partition into kernels is geometric, so seeded results\n"
      "    are byte-identical for any N)\n"
      "    --heap-agents (one heap allocation per agent instead of the\n"
      "    pooled per-strip arenas; the ablation arm of the arena-vs-\n"
      "    heap gate — seeded results are byte-identical)\n"
      "    --profile (record engine runtime spans: per-shard busy time,\n"
      "    barrier waits, round utilization — printed after the run\n"
      "    and exported under the registry's runtime/ namespace;\n"
      "    deterministic results stay byte-identical)\n";
}

}  // namespace d2dhb::scenario

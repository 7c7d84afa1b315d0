// Shared command-line parsing for crowd experiments.
//
// Every driver that runs a crowd — the d2dhb_sim CLI and the scaling /
// storm benches — exposes the same CrowdConfig knobs. A single flag
// table maps names onto CrowdConfig fields, and drivers layer their
// own flags (--smoke, --metrics-out, --seeds) on top.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "scenario/crowd.hpp"

namespace d2dhb::scenario {

/// Thin argv wrapper: lookups mark their flag (and value) as consumed,
/// so a driver can list leftover `--flags` after parsing everything it
/// knows — the "unknown flag" usage error.
class CliFlags {
 public:
  /// Wraps argv[first..argc). The program name and any mode word
  /// (e.g. "crowd") stay outside.
  CliFlags(int argc, char** argv, int first = 1);

  /// True when bare flag `name` is present (marks it consumed).
  bool has(const std::string& name);
  /// Value following `--name` (marks both consumed); nullopt if absent.
  std::optional<std::string> value(const std::string& name);
  /// Value of `--name` parsed as a double; `fallback` when absent.
  double number(const std::string& name, double fallback);

  /// Every argument starting with "--" that no lookup consumed.
  std::vector<std::string> leftover() const;

 private:
  std::vector<std::string> args_;
  std::vector<bool> used_;
};

/// Applies every recognized crowd knob onto `config`:
///   --phones N --relay-fraction F --area M --clusters N --duration S
///   --mobile --policy greedy|random|density|first-n --cell-grid N
///   --grid-cell M --legacy-scan --reassess S --threads N
///   --heap-agents --profile --seed S
/// Returns an error message ("unknown --policy: x", "--threads must be
/// at least 1") or the empty string on success. Flags not present
/// leave their field untouched, so drivers can pre-load defaults.
std::string apply_crowd_flags(CliFlags& flags, CrowdConfig& config);

/// One usage line per crowd knob, for drivers' --help text.
const char* crowd_flags_help();

}  // namespace d2dhb::scenario

// detlint — determinism lint for the d2d_heartbeat tree.
//
// The repo's headline guarantee is byte-identical seeded runs: the same
// (config, seed) must produce the same metrics whether it runs on one
// runner thread or eight, through the grid or the legacy scan path.
// That property is easy to break silently — iterate an unordered_map
// where the order reaches sim-visible state, read the wall clock, or
// construct an RNG outside common/rng — and nothing fails until a
// golden diff goes red two PRs later. detlint scans the sources and
// flags those hazard patterns statically, so the CI gate catches them
// in the PR that introduces them.
//
// Rules (ids are stable; see rules() for the machine-readable table):
//   unordered-iter   range-for / .begin() iteration over an unordered
//                    container — iteration order is hash-bucket layout.
//   unordered-state  declaration of an unordered container in scanned
//                    code; must prove (via allow + justification) that
//                    its iteration order never escapes.
//   wall-clock       system_clock / steady_clock / time() / clock() /
//                    gettimeofday etc. — sim code must use sim time.
//   libc-rand        rand() / srand() — unseeded process-global RNG.
//   random-device    std::random_device — hardware entropy, never
//                    reproducible.
//   std-rng          std:: random engines (mt19937, minstd_rand, ...)
//                    bypassing the seeded common/rng discipline.
//   ptr-key          std::map / std::set keyed on a pointer type —
//                    ordered by allocation address, not by value.
//   float-accum      `+=` accumulation inside an unordered-iter loop —
//                    float reduction order depends on bucket layout.
//   allow-no-reason  a `detlint: allow(...)` suppression without a
//                    justification; every suppression must say why.
//
// v2 shard/arena rules — DESIGN.md §12-13's strip-confinement and
// arena-lifetime conventions as gates (see DESIGN.md §14):
//   cross-strip-access  member calls on another strip's kernel() or a
//                    set_scheduling_shard() override — substrate code
//                    must stay on its ShardGuard lane; kernels are
//                    independent and nothing crosses between them.
//   arena-escape     an arena create<>/adopt() borrow stored into a
//                    `static` or returned — the T& must not outlive
//                    or leave its strip's arena scope.
//   lane-mix         seq-lane re-striding (set_seq_lane) outside the
//                    executor, or a laned substrate (`*lanes_[...]`,
//                    `.lane(...)`) indexed by a hard-coded strip
//                    number instead of the executing shard.
//
// Suppressions: `// detlint: allow(rule-id): <reason>` on the offending
// line or in the comment block directly above it. Several rules may be
// listed (comma-separated). A checked-in allowlist file exempts whole
// files per rule (see load_allowlist()).
//
// Matching runs on comment- and string-literal-stripped source, so rule
// tokens inside strings or docs never fire — which is also why detlint
// can scan its own sources.
#pragma once

#include <cstddef>
#include <filesystem>
#include <string>
#include <vector>

namespace d2dhb::detlint {

struct RuleInfo {
  std::string id;
  std::string summary;
};

/// The stable rule table (id + one-line summary), in report order.
const std::vector<RuleInfo>& rules();

struct Finding {
  std::string file;   ///< Path label as given to the scanner.
  std::size_t line;   ///< 1-based line number.
  std::string rule;   ///< Rule id (see rules()).
  std::string message;

  /// "file:line: [rule] message" — the CI-artifact line format.
  std::string to_string() const;
};

/// One allowlist entry: `rule` (or "*") is exempt in files matching
/// `path_glob` (shell-style glob, matched against the path label and
/// every '/'-suffix of it, so "bench/*" works for absolute paths too).
struct AllowEntry {
  std::string rule;
  std::string path_glob;
  /// Where the entry came from (filled by load_allowlist; empty for
  /// programmatic entries) so stale entries report their own site.
  std::string source;
  std::size_t line{0};
};

struct Options {
  std::vector<AllowEntry> allowlist;
};

/// One suppression — file-level (allowlist entry) or inline
/// (`// detlint: allow(rule)`) — that exempted no finding in the scan.
struct StaleAllow {
  std::string file;  ///< Allowlist file, or the scanned file for inline.
  std::size_t line;  ///< Entry / annotation line (0 when unknown).
  std::string rule;
  std::string detail;  ///< Human-readable description of the entry.
};

/// Suppression usage collected across a scan, for --prune-allowlist.
/// `allowlist_used` is parallel to Options::allowlist; `stale_inline`
/// lists per-rule inline allows that matched nothing in their file.
struct Usage {
  std::vector<bool> allowlist_used;
  std::vector<StaleAllow> stale_inline;

  /// All stale suppressions: unused allowlist entries first (in entry
  /// order), then the stale inline allows (in scan order).
  std::vector<StaleAllow> stale(const Options& options) const;
};

/// Parses an allowlist file: one `<rule-id> <path-glob>` pair per line,
/// '#' comments and blank lines ignored. Throws std::runtime_error on
/// unreadable files or unknown rule ids.
Options load_allowlist(const std::filesystem::path& file);

/// Scans one translation unit given as a string. `path_label` is used
/// for reporting and allowlist matching. Findings come back sorted by
/// (line, rule). With `usage`, suppression use is accumulated into it
/// (allowlist_used grows to the allowlist's size on first need; pass
/// one Usage across many files to aggregate).
std::vector<Finding> scan_source(const std::string& path_label,
                                 const std::string& source,
                                 const Options& options = {},
                                 Usage* usage = nullptr);

/// Scans one file from disk. Throws std::runtime_error if unreadable.
std::vector<Finding> scan_file(const std::filesystem::path& file,
                               const Options& options = {},
                               Usage* usage = nullptr);

/// Scans every C++ source/header under the given roots (files are taken
/// as-is, directories are walked recursively), in sorted path order so
/// the report is deterministic. Returns all findings.
std::vector<Finding> scan_paths(const std::vector<std::filesystem::path>& roots,
                                const Options& options = {},
                                Usage* usage = nullptr);

/// True if `glob` ('*' and '?' wildcards) matches `text`.
bool glob_match(const std::string& glob, const std::string& text);

}  // namespace d2dhb::detlint

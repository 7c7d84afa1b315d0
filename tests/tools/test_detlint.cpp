// Tests for the detlint determinism linter, driven by the fixture
// corpus under tests/tools/fixtures/. Each known-bad fixture documents
// the exact (rule, line) pairs it must produce; the known-good fixtures
// must scan clean. DETLINT_FIXTURE_DIR is injected by CMake.
#include "detlint/detlint.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

namespace {

using d2dhb::detlint::AllowEntry;
using d2dhb::detlint::Finding;
using d2dhb::detlint::Options;
using d2dhb::detlint::glob_match;
using d2dhb::detlint::load_allowlist;
using d2dhb::detlint::rules;
using d2dhb::detlint::scan_file;
using d2dhb::detlint::scan_paths;
using d2dhb::detlint::scan_source;

std::filesystem::path fixture(const std::string& name) {
  return std::filesystem::path(DETLINT_FIXTURE_DIR) / name;
}

/// Findings reduced to the (line, rule) pairs the fixtures document.
std::vector<std::pair<std::size_t, std::string>> line_rules(
    const std::vector<Finding>& findings) {
  std::vector<std::pair<std::size_t, std::string>> out;
  out.reserve(findings.size());
  for (const Finding& f : findings) out.emplace_back(f.line, f.rule);
  return out;
}

TEST(DetlintRules, TableListsEveryDocumentedRule) {
  std::vector<std::string> ids;
  for (const auto& r : rules()) {
    ids.push_back(r.id);
    EXPECT_FALSE(r.summary.empty()) << r.id;
  }
  for (const char* expected :
       {"unordered-iter", "unordered-state", "wall-clock", "libc-rand",
        "random-device", "std-rng", "ptr-key", "float-accum",
        "allow-no-reason", "cross-strip-access", "arena-escape",
        "lane-mix"}) {
    EXPECT_NE(std::find(ids.begin(), ids.end(), expected), ids.end())
        << "missing rule id: " << expected;
  }
}

TEST(DetlintFixtures, UnorderedIterFixtureFiresExactRules) {
  const auto findings = scan_file(fixture("bad_unordered_iter.cc"));
  const std::vector<std::pair<std::size_t, std::string>> expected = {
      {8, "unordered-state"},
      {12, "unordered-iter"},
      {13, "float-accum"},
      {18, "unordered-iter"},
  };
  EXPECT_EQ(line_rules(findings), expected);
}

TEST(DetlintFixtures, ClockAndRandFixtureFiresExactRules) {
  const auto findings = scan_file(fixture("bad_clock_rand.cc"));
  const std::vector<std::pair<std::size_t, std::string>> expected = {
      {9, "wall-clock"},    // steady_clock
      {10, "libc-rand"},    // std::srand
      {10, "wall-clock"},   // std::time(nullptr)
      {11, "libc-rand"},    // rand()
      {12, "random-device"},
      {13, "std-rng"},      // mt19937
      {14, "wall-clock"},   // system_clock
      {18, "wall-clock"},   // clock()
  };
  EXPECT_EQ(line_rules(findings), expected);
}

TEST(DetlintFixtures, PointerKeyFixtureFiresExactRules) {
  const auto findings = scan_file(fixture("bad_ptr_key.cc"));
  const std::vector<std::pair<std::size_t, std::string>> expected = {
      {9, "ptr-key"},
      {10, "ptr-key"},
  };
  EXPECT_EQ(line_rules(findings), expected);
}

TEST(DetlintFixtures, CrossStripFixtureFiresExactRules) {
  // Positives: member kernel() calls (. and ->) and the scheduling-shard
  // override. Negatives (pinned by their absence): the free-function
  // declarations on lines 11-12 and the ::-qualified definition on 14.
  const auto findings = scan_file(fixture("bad_cross_strip.cc"));
  const std::vector<std::pair<std::size_t, std::string>> expected = {
      {7, "cross-strip-access"},
      {8, "cross-strip-access"},
      {9, "cross-strip-access"},
  };
  EXPECT_EQ(line_rules(findings), expected);
}

TEST(DetlintFixtures, ArenaEscapeFixtureFiresExactRules) {
  // Positives: static-cached create<> and returned adopt(). Negatives:
  // the two local borrows in fine() (lines 14-15).
  const auto findings = scan_file(fixture("bad_arena_escape.cc"));
  const std::vector<std::pair<std::size_t, std::string>> expected = {
      {7, "arena-escape"},
      {11, "arena-escape"},
  };
  EXPECT_EQ(line_rules(findings), expected);
}

TEST(DetlintFixtures, LaneMixFixtureFiresExactRules) {
  // Positives: two hard-coded lane subscripts, a set_seq_lane call,
  // and a literal lane() fetch. Negatives: the shard-indexed subscript
  // and lane(shard) fetch in fine() (lines 13-14).
  const auto findings = scan_file(fixture("bad_lane_mix.cc"));
  const std::vector<std::pair<std::size_t, std::string>> expected = {
      {7, "lane-mix"},
      {8, "lane-mix"},
      {9, "lane-mix"},
      {10, "lane-mix"},
  };
  EXPECT_EQ(line_rules(findings), expected);
}

TEST(DetlintFixtures, StripperHandlesRawStringsAndContinuedComments) {
  // Raw-string contents and a backslash-continued comment must neither
  // fabricate findings (lines 5, 6, 9) nor mask the real calls that
  // follow them (lines 7 and 10).
  const auto findings = scan_file(fixture("bad_stripper.cc"));
  const std::vector<std::pair<std::size_t, std::string>> expected = {
      {7, "libc-rand"},
      {10, "libc-rand"},
  };
  EXPECT_EQ(line_rules(findings), expected);
}

TEST(DetlintFixtures, CleanFixtureHasZeroFindings) {
  const auto findings = scan_file(fixture("good_clean.cc"));
  EXPECT_TRUE(findings.empty()) << findings.front().to_string();
}

TEST(DetlintFixtures, JustifiedSuppressionsSilenceEverything) {
  const auto findings = scan_file(fixture("good_suppressed.cc"));
  EXPECT_TRUE(findings.empty()) << findings.front().to_string();
}

TEST(DetlintFixtures, BareAllowSuppressesRuleButFiresAllowNoReason) {
  const auto findings = scan_file(fixture("bad_bare_allow.cc"));
  const std::vector<std::pair<std::size_t, std::string>> expected = {
      {6, "allow-no-reason"},
  };
  EXPECT_EQ(line_rules(findings), expected);
}

TEST(DetlintScan, SeededViolationInSimPathReportsUnorderedIter) {
  // The acceptance-criterion shape: a hazard seeded into sim code must
  // come back with the right rule id and path label.
  const std::string source =
      "#include <unordered_map>\n"
      "std::unordered_map<int, int> m;\n"
      "int f() {\n"
      "  int s = 0;\n"
      "  for (const auto& [k, v] : m) s += v;\n"
      "  return s;\n"
      "}\n";
  const auto findings = scan_source("src/sim/src/seeded.cpp", source);
  ASSERT_FALSE(findings.empty());
  bool saw_iter = false;
  for (const Finding& f : findings) {
    EXPECT_EQ(f.file, "src/sim/src/seeded.cpp");
    if (f.rule == "unordered-iter" && f.line == 5) saw_iter = true;
  }
  EXPECT_TRUE(saw_iter);
}

TEST(DetlintScan, FindingToStringUsesFileLineRuleFormat) {
  const auto findings = scan_file(fixture("bad_ptr_key.cc"));
  ASSERT_FALSE(findings.empty());
  const std::string line = findings.front().to_string();
  EXPECT_NE(line.find(":9: [ptr-key]"), std::string::npos) << line;
}

TEST(DetlintScan, ScanPathsWalksFixtureDirDeterministically) {
  const std::vector<std::filesystem::path> roots = {
      std::filesystem::path(DETLINT_FIXTURE_DIR)};
  const auto first = scan_paths(roots);
  const auto second = scan_paths(roots);
  ASSERT_FALSE(first.empty());
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].to_string(), second[i].to_string());
  }
  // Files are visited in sorted order: bad_* findings precede good_*.
  EXPECT_NE(first.front().file.find("bad_"), std::string::npos);
}

TEST(DetlintAllowlist, EntryExemptsMatchingFileAndRuleOnly) {
  Options options;
  options.allowlist.push_back(
      AllowEntry{"wall-clock", "*bad_clock_rand.cc", "", 0});
  const auto findings = scan_file(fixture("bad_clock_rand.cc"), options);
  for (const Finding& f : findings) {
    EXPECT_NE(f.rule, "wall-clock") << f.to_string();
  }
  // The non-wall-clock findings survive.
  const auto lr = line_rules(findings);
  EXPECT_NE(std::find(lr.begin(), lr.end(),
                      std::make_pair(std::size_t{11}, std::string("libc-rand"))),
            lr.end());
}

TEST(DetlintAllowlist, StarRuleExemptsWholeFile) {
  Options options;
  options.allowlist.push_back(AllowEntry{"*", "*bad_ptr_key.cc", "", 0});
  EXPECT_TRUE(scan_file(fixture("bad_ptr_key.cc"), options).empty());
}

TEST(DetlintAllowlist, LoadParsesFileAndRejectsUnknownRules) {
  const auto dir = std::filesystem::temp_directory_path();
  const auto good = dir / "detlint_allow_good.txt";
  {
    std::ofstream out(good);
    out << "# comment\n\nwall-clock bench/*\n* tests/tools/fixtures/*\n";
  }
  const Options options = load_allowlist(good);
  ASSERT_EQ(options.allowlist.size(), 2u);
  EXPECT_EQ(options.allowlist[0].rule, "wall-clock");
  EXPECT_EQ(options.allowlist[0].path_glob, "bench/*");
  EXPECT_EQ(options.allowlist[1].rule, "*");

  const auto bad = dir / "detlint_allow_bad.txt";
  {
    std::ofstream out(bad);
    out << "not-a-rule src/*\n";
  }
  EXPECT_THROW(load_allowlist(bad), std::runtime_error);
  EXPECT_THROW(load_allowlist(dir / "does_not_exist.txt"),
               std::runtime_error);
}

TEST(DetlintPrune, StaleInlineAllowIsReportedUsedOneIsNot) {
  const std::string source =
      "#include <unordered_set>\n"
      "// detlint: allow(unordered-state): probes only, never iterated.\n"
      "std::unordered_set<int> seen;\n"
      "// detlint: allow(wall-clock): justification for nothing.\n"
      "int x = 0;\n";
  d2dhb::detlint::Usage usage;
  const auto findings = scan_source("probe.cpp", source, {}, &usage);
  EXPECT_TRUE(findings.empty());
  ASSERT_EQ(usage.stale_inline.size(), 1u);
  EXPECT_EQ(usage.stale_inline[0].file, "probe.cpp");
  EXPECT_EQ(usage.stale_inline[0].line, 4u);
  EXPECT_EQ(usage.stale_inline[0].rule, "wall-clock");
}

TEST(DetlintPrune, StaleAllowlistEntryIsReportedUsedOneIsNot) {
  Options options;
  options.allowlist.push_back(
      AllowEntry{"ptr-key", "*bad_ptr_key.cc", "allow.txt", 1});
  options.allowlist.push_back(
      AllowEntry{"wall-clock", "*no_such_file.cc", "allow.txt", 2});
  d2dhb::detlint::Usage usage;
  const auto findings = scan_file(fixture("bad_ptr_key.cc"), options, &usage);
  EXPECT_TRUE(findings.empty());
  const auto stale = usage.stale(options);
  ASSERT_EQ(stale.size(), 1u);
  EXPECT_EQ(stale[0].file, "allow.txt");
  EXPECT_EQ(stale[0].line, 2u);
  EXPECT_EQ(stale[0].rule, "wall-clock");
}

TEST(DetlintPrune, MultiRuleInlineAllowReportsOnlyTheStaleRule) {
  const std::string source =
      "#include <unordered_set>\n"
      "// detlint: allow(unordered-state, libc-rand): set is probe-only.\n"
      "std::unordered_set<int> seen;\n";
  d2dhb::detlint::Usage usage;
  const auto findings = scan_source("probe.cpp", source, {}, &usage);
  EXPECT_TRUE(findings.empty());
  ASSERT_EQ(usage.stale_inline.size(), 1u);
  EXPECT_EQ(usage.stale_inline[0].rule, "libc-rand");
  EXPECT_EQ(usage.stale_inline[0].line, 2u);
}

TEST(DetlintPrune, UsageAggregatesAcrossScanPaths) {
  Options options;
  options.allowlist.push_back(AllowEntry{"*", "*does_not_exist*", "a.txt", 3});
  d2dhb::detlint::Usage usage;
  const auto findings = scan_paths(
      {std::filesystem::path(DETLINT_FIXTURE_DIR)}, options, &usage);
  ASSERT_FALSE(findings.empty());
  ASSERT_EQ(usage.allowlist_used.size(), 1u);
  EXPECT_FALSE(usage.allowlist_used[0]);
  const auto stale = usage.stale(options);
  ASSERT_FALSE(stale.empty());
  EXPECT_EQ(stale[0].file, "a.txt");
  EXPECT_EQ(stale[0].line, 3u);
}

TEST(DetlintGlob, MatchesShellStylePatterns) {
  EXPECT_TRUE(glob_match("*.cc", "foo.cc"));
  EXPECT_TRUE(glob_match("bench/*", "bench/perf_kernel.cpp"));
  EXPECT_TRUE(glob_match("?at.h", "cat.h"));
  EXPECT_FALSE(glob_match("*.cc", "foo.hpp"));
  EXPECT_FALSE(glob_match("bench/*", "src/bench_thing.cpp"));
  EXPECT_TRUE(glob_match("*", "anything/at/all.cpp"));
}

TEST(DetlintScan, StringsAndCommentsNeverFire) {
  const std::string source =
      "// rand() steady_clock std::unordered_map\n"
      "const char* s = \"srand(time(nullptr)) random_device\";\n"
      "/* for (auto& kv : bad_unordered_map_) {} */\n";
  EXPECT_TRUE(scan_source("probe.cpp", source).empty());
}

TEST(DetlintScan, SuppressionAppliesToCommentBlockDirectlyAbove) {
  const std::string suppressed =
      "#include <unordered_set>\n"
      "// detlint: allow(unordered-state): membership probes only, the\n"
      "// set is never iterated.\n"
      "std::unordered_set<int> seen;\n";
  EXPECT_TRUE(scan_source("probe.cpp", suppressed).empty());

  // A blank line breaks the block: the suppression no longer reaches
  // the declaration.
  const std::string detached =
      "#include <unordered_set>\n"
      "// detlint: allow(unordered-state): stale justification.\n"
      "\n"
      "std::unordered_set<int> seen;\n";
  const auto findings = scan_source("probe.cpp", detached);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "unordered-state");
  EXPECT_EQ(findings[0].line, 4u);
}

}  // namespace

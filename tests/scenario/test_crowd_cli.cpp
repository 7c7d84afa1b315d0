// apply_crowd_flags() is the one flag table every crowd driver shares
// (the d2dhb_sim CLI and the scaling benches). These tests pin the
// interactions between knobs: --threads is allowed to exceed the
// world's shard count (the engine caps the pool, never the parser),
// out-of-range values are rejected loudly with the exact message the
// driver prints, and flags that are absent leave pre-loaded defaults
// untouched.
#include "scenario/crowd_cli.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/operator_selection.hpp"

namespace d2dhb::scenario {
namespace {

/// Owns argv storage for a CliFlags built from a plain list of flags.
class Argv {
 public:
  explicit Argv(std::vector<std::string> args) : args_(std::move(args)) {
    ptrs_.reserve(args_.size());
    for (std::string& arg : args_) ptrs_.push_back(arg.data());
  }

  CliFlags flags() {
    return CliFlags(static_cast<int>(ptrs_.size()), ptrs_.data(), 0);
  }

 private:
  std::vector<std::string> args_;
  std::vector<char*> ptrs_;
};

TEST(CrowdCliFlags, ThreadsMayExceedShards) {
  // The parser must accept an oversubscribed pool: the effective
  // worker count is min(threads, kernel count) inside the engine (see
  // sim/engine.hpp), not a parse-time constraint.
  Argv argv({"--threads", "8"});
  CliFlags flags = argv.flags();
  CrowdConfig config;
  EXPECT_EQ(apply_crowd_flags(flags, config), "");
  EXPECT_EQ(config.threads, 8u);
  EXPECT_TRUE(flags.leftover().empty());
}

TEST(CrowdCliFlags, ZeroThreadsRejected) {
  Argv argv({"--threads", "0"});
  CliFlags flags = argv.flags();
  CrowdConfig config;
  EXPECT_EQ(apply_crowd_flags(flags, config), "--threads must be at least 1");
}

TEST(CrowdCliFlags, UnknownPolicyRejectedKnownPoliciesMap) {
  {
    Argv argv({"--policy", "bogus"});
    CliFlags flags = argv.flags();
    CrowdConfig config;
    EXPECT_EQ(apply_crowd_flags(flags, config), "unknown --policy: bogus");
  }
  {
    Argv argv({"--policy", "greedy"});
    CliFlags flags = argv.flags();
    CrowdConfig config;
    EXPECT_EQ(apply_crowd_flags(flags, config), "");
    ASSERT_TRUE(config.operator_policy.has_value());
    EXPECT_EQ(*config.operator_policy,
              core::SelectionPolicy::coverage_greedy);
  }
  {
    // first-n is the legacy layout: it clears a pre-loaded policy.
    Argv argv({"--policy", "first-n"});
    CliFlags flags = argv.flags();
    CrowdConfig config;
    config.operator_policy = core::SelectionPolicy::density;
    EXPECT_EQ(apply_crowd_flags(flags, config), "");
    EXPECT_FALSE(config.operator_policy.has_value());
  }
}

TEST(CrowdCliFlags, HeapAgentsIsOptInAndSticky) {
  {
    Argv argv({"--heap-agents"});
    CliFlags flags = argv.flags();
    CrowdConfig config;
    EXPECT_EQ(apply_crowd_flags(flags, config), "");
    EXPECT_TRUE(config.heap_agents);
  }
  {
    // Absent flag leaves a driver's pre-loaded default untouched.
    Argv argv({"--phones", "12"});
    CliFlags flags = argv.flags();
    CrowdConfig config;
    config.heap_agents = true;
    EXPECT_EQ(apply_crowd_flags(flags, config), "");
    EXPECT_TRUE(config.heap_agents);
  }
}

TEST(CrowdCliFlags, UnconsumedFlagsSurfaceAsLeftover) {
  Argv argv({"--phones", "12", "--bogus", "1"});
  CliFlags flags = argv.flags();
  CrowdConfig config;
  EXPECT_EQ(apply_crowd_flags(flags, config), "");
  const std::vector<std::string> leftover = flags.leftover();
  ASSERT_EQ(leftover.size(), 1u);
  EXPECT_EQ(leftover[0], "--bogus");
}

}  // namespace
}  // namespace d2dhb::scenario

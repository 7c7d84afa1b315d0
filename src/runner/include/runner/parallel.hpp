// Parallel execution primitive for embarrassingly parallel experiment
// matrices. Each job is an independent, self-contained deterministic
// simulation (one sim::Simulator per job), so the only shared state is
// the claim counter and the result slots — results come back in index
// order regardless of which worker ran what, keeping aggregated output
// byte-identical across thread counts.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "common/parallel.hpp"

namespace d2dhb::runner {

/// Worker count used when a caller passes 0: the D2DHB_THREADS
/// environment variable when set (>= 1), otherwise hardware concurrency.
std::size_t default_thread_count();

/// {first, first+1, ..., first+count-1}.
std::vector<std::uint64_t> seed_range(std::uint64_t first, std::size_t count);

/// Parses "101:5" (start:count) or "1,2,9" (explicit list) into seeds.
/// Throws std::invalid_argument on malformed input.
std::vector<std::uint64_t> parse_seed_list(const std::string& spec);

/// The D2DHB_SEEDS environment variable (same syntax as
/// parse_seed_list) when set, otherwise `fallback`.
std::vector<std::uint64_t> seeds_from_env(std::vector<std::uint64_t> fallback);

/// Runs job(0) ... job(count-1) on up to `threads` workers, the
/// caller's thread included (0 = default_thread_count()), and returns
/// the results in index order. Jobs are claimed by the shared loop of
/// common/parallel.hpp: once a job throws no further job starts, and
/// the exception with the lowest index is rethrown after all workers
/// have stopped.
template <typename Fn>
auto parallel_index_map(std::size_t count, Fn&& job, std::size_t threads = 0)
    -> std::vector<std::invoke_result_t<Fn&, std::size_t>> {
  using R = std::invoke_result_t<Fn&, std::size_t>;
  static_assert(!std::is_void_v<R>,
                "parallel_index_map jobs must return a value");
  if (threads == 0) threads = default_thread_count();

  std::vector<std::optional<R>> slots(count);
  auto fill = [&](std::size_t, std::size_t i) { slots[i].emplace(job(i)); };
  for_each_claimed(count, std::min(threads, count), fill);

  std::vector<R> out;
  out.reserve(count);
  for (std::optional<R>& s : slots) out.push_back(std::move(*s));
  return out;
}

}  // namespace d2dhb::runner

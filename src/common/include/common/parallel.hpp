// The one work-claiming loop: workers take the next index from a shared
// atomic counter until every index is taken. The engine runs its
// kernels through it (sim/engine.hpp) and the runner its independent
// jobs (runner/parallel.hpp). Which worker runs which index depends on
// timing, so callers may only touch state whose contents do not; what
// every caller gets back is in index order.
#pragma once

#include <atomic>
#include <cstddef>
#include <exception>
#include <thread>
#include <vector>

#include "common/thread_annotations.hpp"

namespace d2dhb {

/// Calls body(worker, index) once for every index in [0, count) and
/// returns after every call has finished. The caller runs as worker 0
/// and starts `workers - 1` threads (none when `workers` <= 1, in which
/// case the caller claims 0, 1, ... in order); each worker claims
/// indices from one atomic counter. Once a body throws, the workers
/// stop claiming, and after the join the exception of the lowest index
/// that threw is rethrown: the same one for any worker count, since a
/// lower index is always claimed, and so run, before a higher one.
template <typename Body>
void for_each_claimed(std::size_t count, std::size_t workers, Body&& body) {
  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  Mutex error_mutex;
  std::size_t error_index = count;  // Past every index: none threw yet.
  std::exception_ptr error;

  auto work = [&](std::size_t worker) {
    while (!failed.load(std::memory_order_relaxed)) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= count) return;
      try {
        body(worker, i);
      } catch (...) {
        const MutexLock lock(error_mutex);
        if (i < error_index) {
          error_index = i;
          error = std::current_exception();
        }
        failed.store(true, std::memory_order_relaxed);
      }
    }
  };

  {
    std::vector<std::jthread> threads;
    if (workers > 1) threads.reserve(workers - 1);
    for (std::size_t w = 1; w < workers; ++w) threads.emplace_back(work, w);
    work(0);
  }  // std::jthread joins here.
  if (error) std::rethrow_exception(error);
}

}  // namespace d2dhb

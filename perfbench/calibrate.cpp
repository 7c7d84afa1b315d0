#include "calibrate.hpp"

#include <algorithm>
#include <chrono>

namespace perfbench {

namespace {

constexpr std::size_t kHeapKeys = 20000;
constexpr std::size_t kPops = 100000;
constexpr std::uint32_t kTableMask = (1u << 21) - 1;  // 2 Mi words = 8 MiB

std::uint64_t xorshift(std::uint64_t& x) {
  x ^= x << 13;
  x ^= x >> 7;
  x ^= x << 17;
  return x;
}

}  // namespace

Calibration::Calibration() : table_(kTableMask + 1) {
  for (std::uint32_t i = 0; i <= kTableMask; ++i) table_[i] = i * 2654435761u;
  heap_.resize(kHeapKeys);  // touched now, so resident before the first pass
  heap_.clear();
}

double Calibration::pass_s() {
  const auto start = std::chrono::steady_clock::now();
  std::uint64_t x = 88172645463325252ull;
  std::uint64_t acc = 0;
  heap_.clear();
  for (std::size_t i = 0; i < kHeapKeys; ++i) {
    heap_.push_back(xorshift(x));
    std::push_heap(heap_.begin(), heap_.end());
  }
  for (std::size_t i = 0; i < kPops; ++i) {
    const std::uint64_t key = xorshift(x);
    acc += heap_.front() + table_[(key >> 20) & kTableMask];
    std::pop_heap(heap_.begin(), heap_.end());
    heap_.back() = key;
    std::push_heap(heap_.begin(), heap_.end());
  }
  checksum_ += acc;
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace perfbench

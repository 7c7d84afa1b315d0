// Fixed reference work, timed between the chunks of a serial run. Other
// tenants of a shared host slow the simulator by tens of per cent for
// minutes at a time; this pass slows with it, so dividing by it gives a
// run time at a reference host speed (NOTES.md, "Host-speed reference").
// Its code lives in the benchmark, so no change to the simulator moves it.
#pragma once

#include <cstdint>
#include <vector>

namespace perfbench {

/// A discrete-event executor's access pattern in miniature: a binary
/// heap of 20,000 keys popped and refilled 100,000 times, with one read
/// of an 8 MiB table per pop. Every pass does exactly the same work.
class Calibration {
 public:
  /// Median pass time on the 4-vCPU host the benchmark was tuned on.
  static constexpr double kReferenceS = 0.0175;

  /// Allocates and fills the table and the heap's storage, so that the
  /// resident size is final before the first pass.
  Calibration();
  /// Runs one pass; returns its wall time in seconds.
  double pass_s();
  /// Folds every pass's result, so the work cannot be optimised away.
  std::uint64_t checksum() const { return checksum_; }

 private:
  std::vector<std::uint32_t> table_;
  std::vector<std::uint64_t> heap_;
  std::uint64_t checksum_{0};
};

}  // namespace perfbench

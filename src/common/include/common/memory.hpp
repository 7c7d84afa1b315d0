// Process memory observability for the bench reports: the city-scale
// bench's headline is wall time AND peak RSS vs phone count, and the CI
// smoke leg bounds the RSS so a layout regression (an agent quietly
// growing, pooling silently disabled) fails the build instead of the
// next million-phone run.
#pragma once

#include <cstdint>

namespace d2dhb {

/// Peak resident set size of this process in bytes (getrusage
/// ru_maxrss). Monotone over the process lifetime — ascending-size
/// bench arms read it after each arm so the delta attributes to that
/// arm. Returns 0 where the platform offers no counter.
std::uint64_t peak_rss_bytes();

}  // namespace d2dhb

// The monotonic wall clock, in nanoseconds: what table commits, the port
// runtime's control items and the commit-latency bench time themselves
// with.
#pragma once

#include <chrono>
#include <cstdint>

namespace analognf {

inline std::uint64_t SteadyNowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace analognf

// Virtual time types for the tempo discrete-event simulator.
//
// All simulated time is kept in signed 64-bit nanoseconds. Using a plain
// integral type (rather than std::chrono) keeps the arithmetic transparent in
// the OS models, which constantly convert between nanoseconds, jiffies
// (Linux, 4 ms at HZ=250) and clock-interrupt ticks (Vista, 15.625 ms), just
// like the kernels they model.

#ifndef TEMPO_SRC_SIM_TIME_H_
#define TEMPO_SRC_SIM_TIME_H_

#include <cstdint>
#include <string>

namespace tempo {

// A point in simulated time, in nanoseconds since simulation start.
using SimTime = int64_t;

// A span of simulated time, in nanoseconds.
using SimDuration = int64_t;

inline constexpr SimDuration kNanosecond = 1;
inline constexpr SimDuration kMicrosecond = 1000 * kNanosecond;
inline constexpr SimDuration kMillisecond = 1000 * kMicrosecond;
inline constexpr SimDuration kSecond = 1000 * kMillisecond;
inline constexpr SimDuration kMinute = 60 * kSecond;
inline constexpr SimDuration kHour = 60 * kMinute;

// Sentinel for "no time" / "never".
inline constexpr SimTime kNeverTime = INT64_MAX;

// Converts a duration in (fractional) seconds to SimDuration.
constexpr SimDuration FromSeconds(double seconds) {
  return static_cast<SimDuration>(seconds * static_cast<double>(kSecond));
}

// Converts a duration in (fractional) milliseconds to SimDuration.
constexpr SimDuration FromMilliseconds(double ms) {
  return static_cast<SimDuration>(ms * static_cast<double>(kMillisecond));
}

// Converts a duration in (fractional) microseconds to SimDuration.
constexpr SimDuration FromMicroseconds(double us) {
  return static_cast<SimDuration>(us * static_cast<double>(kMicrosecond));
}

// Converts a SimTime / SimDuration to fractional seconds.
constexpr double ToSeconds(SimDuration d) {
  return static_cast<double>(d) / static_cast<double>(kSecond);
}

// Converts a SimTime / SimDuration to fractional milliseconds.
constexpr double ToMilliseconds(SimDuration d) {
  return static_cast<double>(d) / static_cast<double>(kMillisecond);
}

// Decoded traces may carry times anywhere in int64_t, where a plain sum
// or difference of two of them can overflow. These two never do.

// |a - b| as an unsigned count of nanoseconds, exact for any a and b.
constexpr uint64_t Distance(SimTime a, SimTime b) {
  return a > b ? static_cast<uint64_t>(a) - static_cast<uint64_t>(b)
               : static_cast<uint64_t>(b) - static_cast<uint64_t>(a);
}

// t + d, clamped to the int64_t range.
constexpr SimTime SaturatingAdd(SimTime t, SimDuration d) {
  SimTime sum = 0;
  if (__builtin_add_overflow(t, d, &sum)) {
    return d > 0 ? INT64_MAX : INT64_MIN;
  }
  return sum;
}

// Formats a duration with an adaptive unit suffix, e.g. "1.5ms", "7200s".
// Intended for human-readable analysis output, not for parsing.
std::string FormatDuration(SimDuration d);

// Formats an unsigned span of nanoseconds the same way, so a span wider
// than int64_t (a Distance) still prints as positive.
std::string FormatDistance(uint64_t ns);

}  // namespace tempo

#endif  // TEMPO_SRC_SIM_TIME_H_

#include "src/sim/time.h"

#include <cmath>
#include <cstdio>
#include <limits>

namespace tempo {

std::string FormatDuration(SimDuration d) {
  const char* sign = "";
  if (d < 0) {
    sign = "-";
    // The most negative duration has no positive twin; 1 ns short of it
    // prints the same at six significant digits.
    d = d == std::numeric_limits<SimDuration>::min() ? std::numeric_limits<SimDuration>::max()
                                                     : -d;
  }
  char buf[64];
  if (d >= kSecond) {
    std::snprintf(buf, sizeof(buf), "%s%.6gs", sign, ToSeconds(d));
  } else if (d >= kMillisecond) {
    std::snprintf(buf, sizeof(buf), "%s%.6gms", sign, ToMilliseconds(d));
  } else if (d >= kMicrosecond) {
    std::snprintf(buf, sizeof(buf), "%s%.6gus",
                  sign, static_cast<double>(d) / static_cast<double>(kMicrosecond));
  } else {
    std::snprintf(buf, sizeof(buf), "%s%lldns", sign, static_cast<long long>(d));
  }
  return buf;
}

}  // namespace tempo

#include "src/sim/time.h"

#include <cmath>
#include <cstdio>

namespace tempo {

std::string FormatDuration(SimDuration d) {
  const std::string magnitude = FormatDistance(Distance(d, 0));
  return d < 0 ? "-" + magnitude : magnitude;
}

std::string FormatDistance(uint64_t ns) {
  const double value = static_cast<double>(ns);
  char buf[64];
  if (ns >= static_cast<uint64_t>(kSecond)) {
    std::snprintf(buf, sizeof(buf), "%.6gs", value / static_cast<double>(kSecond));
  } else if (ns >= static_cast<uint64_t>(kMillisecond)) {
    std::snprintf(buf, sizeof(buf), "%.6gms", value / static_cast<double>(kMillisecond));
  } else if (ns >= static_cast<uint64_t>(kMicrosecond)) {
    std::snprintf(buf, sizeof(buf), "%.6gus", value / static_cast<double>(kMicrosecond));
  } else {
    std::snprintf(buf, sizeof(buf), "%lluns", static_cast<unsigned long long>(ns));
  }
  return buf;
}

}  // namespace tempo

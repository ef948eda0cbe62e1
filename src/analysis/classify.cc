#include "src/analysis/classify.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "src/analysis/render.h"
#include "src/sim/time.h"

namespace tempo {

const char* UsagePatternName(UsagePattern pattern) {
  switch (pattern) {
    case UsagePattern::kPeriodic:
      return "periodic";
    case UsagePattern::kWatchdog:
      return "watchdog";
    case UsagePattern::kDelay:
      return "delay";
    case UsagePattern::kTimeout:
      return "timeout";
    case UsagePattern::kDeferred:
      return "deferred";
    case UsagePattern::kCountdown:
      return "countdown";
    case UsagePattern::kOther:
      return "other";
    case UsagePattern::kSingleUse:
      return "single-use";
  }
  return "?";
}

namespace {

// Decoded timestamps and timeouts may lie anywhere in int64_t, so the
// differences below are taken without signed overflow: as an unsigned
// Distance (sim/time.h) where only the magnitude matters, and checked
// where the sign matters.

// Finds the largest cluster of values within +/- variance of a common
// centre. Returns {count, centre}. O(n log n).
std::pair<size_t, SimDuration> DominantValue(std::vector<SimDuration> values,
                                             SimDuration variance) {
  if (values.empty()) {
    return {0, 0};
  }
  std::sort(values.begin(), values.end());
  const uint64_t window = 2 * static_cast<uint64_t>(std::max<SimDuration>(variance, 0));
  size_t best = 0;
  SimDuration centre = values.front();
  size_t lo = 0;
  for (size_t hi = 0; hi < values.size(); ++hi) {
    while (Distance(values[hi], values[lo]) > window) {
      ++lo;
    }
    const size_t count = hi - lo + 1;
    if (count > best) {
      best = count;
      centre = values[lo + (hi - lo) / 2];
    }
  }
  return {best, centre};
}

bool Near(SimDuration a, SimDuration b, SimDuration variance) {
  return variance >= 0 && Distance(a, b) <= static_cast<uint64_t>(variance);
}

}  // namespace

TimerClass ClassifyGroup(const std::vector<Episode>& group, const ClassifyOptions& options) {
  TimerClass result;
  if (group.empty()) {
    return result;
  }
  result.key = ClusterKeyFor(group.front());
  result.callsite = group.front().callsite;
  result.pid = group.front().pid;
  result.episodes = group.size();
  result.user = group.front().user();

  const size_t n = group.size();
  if (n < options.min_episodes) {
    result.pattern = UsagePattern::kSingleUse;
    result.dominant_timeout = group.front().timeout;
    return result;
  }

  // Countdown detection: the next set's value is the previous value minus
  // the elapsed time (select writes back the remaining time, Figure 4).
  size_t countdown_pairs = 0;
  for (size_t i = 0; i + 1 < n; ++i) {
    // A step whose elapsed time or remainder overflows int64_t is not a
    // countdown step.
    SimDuration elapsed = 0;
    SimDuration expected = 0;
    if (__builtin_sub_overflow(group[i + 1].set_time, group[i].set_time, &elapsed) ||
        __builtin_sub_overflow(group[i].timeout, elapsed, &expected)) {
      continue;
    }
    if (expected > 0 && group[i + 1].timeout < group[i].timeout &&
        Near(group[i + 1].timeout, expected, options.variance)) {
      ++countdown_pairs;
    }
  }
  if (static_cast<double>(countdown_pairs) >= 0.5 * static_cast<double>(n - 1)) {
    result.pattern = UsagePattern::kCountdown;
    // The dominant value of a countdown is its starting (full) value.
    SimDuration full = 0;
    for (const Episode& e : group) {
      full = std::max(full, e.timeout);
    }
    result.dominant_timeout = full;
    return result;
  }

  std::vector<SimDuration> values;
  values.reserve(n);
  for (const Episode& e : group) {
    values.push_back(e.canonical);
  }
  const auto [dominant_count, dominant] = DominantValue(std::move(values), options.variance);
  result.dominant_timeout = dominant;
  const double same_frac = static_cast<double>(dominant_count) / static_cast<double>(n);
  if (same_frac < options.dominance) {
    result.pattern = UsagePattern::kOther;  // irregular / adaptive values
    return result;
  }

  // Behaviour statistics over the dominant-value episodes.
  size_t expired = 0;
  size_t canceled = 0;
  size_t reset = 0;
  size_t expired_with_next = 0;
  size_t immediate_reset_after_expiry = 0;
  for (size_t i = 0; i < n; ++i) {
    const Episode& e = group[i];
    if (!Near(e.canonical, dominant, options.variance)) {
      continue;
    }
    switch (e.end) {
      case EpisodeEnd::kExpired:
        ++expired;
        if (i + 1 < n) {
          ++expired_with_next;
          // Re-set no later than `variance` after the expiry; a gap
          // outside int64_t is immediate exactly when it is negative.
          SimDuration gap = 0;
          const bool immediate =
              __builtin_sub_overflow(group[i + 1].set_time, e.end_time, &gap)
                  ? group[i + 1].set_time < e.end_time
                  : gap <= options.variance;
          if (immediate) {
            ++immediate_reset_after_expiry;
          }
        }
        break;
      case EpisodeEnd::kCanceled:
        ++canceled;
        break;
      case EpisodeEnd::kReset:
        ++reset;
        break;
      case EpisodeEnd::kOpen:
        break;
    }
  }
  const double total = static_cast<double>(expired + canceled + reset);
  if (total == 0) {
    result.pattern = UsagePattern::kOther;
    return result;
  }
  const double expire_frac = static_cast<double>(expired) / total;
  const double cancel_frac = static_cast<double>(canceled) / total;
  const double reset_frac = static_cast<double>(reset) / total;

  if (reset_frac >= 0.5) {
    // Endless deferral is a watchdog; deferral that periodically gives way
    // to an expiry is the Vista "deferred operation" pattern.
    result.pattern = expire_frac >= 0.1 ? UsagePattern::kDeferred : UsagePattern::kWatchdog;
    return result;
  }
  if (expire_frac >= options.dominance) {
    const double immediate_frac =
        expired_with_next > 0
            ? static_cast<double>(immediate_reset_after_expiry) /
                  static_cast<double>(expired_with_next)
            : 0.0;
    result.pattern =
        immediate_frac >= 0.5 ? UsagePattern::kPeriodic : UsagePattern::kDelay;
    return result;
  }
  if (cancel_frac >= options.dominance) {
    result.pattern = UsagePattern::kTimeout;
    return result;
  }
  if (reset_frac >= 0.3 && expire_frac >= 0.1) {
    result.pattern = UsagePattern::kDeferred;
    return result;
  }
  result.pattern = UsagePattern::kOther;
  return result;
}

void ClassifyPass::Accumulate(std::span<const TraceRecord> records) {
  episodes_.Accumulate(records);
}

void ClassifyPass::Merge(AnalysisPass&& other) {
  episodes_.Merge(std::move(dynamic_cast<ClassifyPass&>(other).episodes_));
}

std::vector<TimerClass> ClassifyPass::Result() const {
  std::vector<TimerClass> out;
  episodes_.ForEachGroup(
      [&](const std::vector<Episode>& group) { out.push_back(ClassifyGroup(group, options_)); });
  return out;
}

std::unique_ptr<AnalysisPass> ClassifyPass::Fork() const {
  return std::make_unique<ClassifyPass>(options_, column_);
}

void ClassifyPass::Render(RenderSink& sink) {
  sink.Section("patterns",
               "usage patterns:\n" +
                   RenderPatternHistogram({{column_, PatternHistogram(Result())}}) +
                   "\n");
}

std::map<UsagePattern, double> PatternHistogram(const std::vector<TimerClass>& classes) {
  std::map<UsagePattern, double> histogram;
  size_t considered = 0;
  for (const TimerClass& c : classes) {
    if (c.pattern == UsagePattern::kSingleUse) {
      continue;
    }
    ++considered;
    histogram[c.pattern] += 1.0;
  }
  if (considered > 0) {
    for (auto& [pattern, value] : histogram) {
      value = 100.0 * value / static_cast<double>(considered);
    }
  }
  return histogram;
}

}  // namespace tempo

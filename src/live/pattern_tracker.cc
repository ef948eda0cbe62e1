#include "src/live/pattern_tracker.h"

#include <algorithm>
#include <array>
#include <span>

namespace tempo {
namespace live {

PatternTracker::PatternTracker(std::string stats_label, size_t capacity)
    : capacity_(std::max<size_t>(capacity, 1)) {
  if (!stats_label.empty()) {
    obs::Registry& registry = obs::Registry::Global();
    const obs::Labels labels = {{"analyzer", stats_label}};
    metric_evictions_ = registry.GetCounter(
        "live_classifier_evictions", labels,
        "Episode groups dropped when the live pattern fold reached its capacity");
    gauge_tracked_ = registry.GetGauge("live_classifier_tracked", labels,
                                       "Episode groups in the live pattern fold");
  }
}

void PatternTracker::Ingest(const TraceRecord& record) {
  // Only an arm files an episode, so the fold grows past capacity on
  // nothing else.
  if (IsArm(record.op) && episodes() >= capacity_) {
    evictions_ += tracked();
    if (metric_evictions_ != nullptr) {
      metric_evictions_->Inc(tracked());
    }
    pass_ = ClassifyPass();
  }
  pass_.Accumulate(std::span<const TraceRecord>(&record, 1));
}

std::vector<std::pair<std::string, uint64_t>> PatternTracker::Mix() const {
  std::array<uint64_t, 8> counts{};
  for (const TimerClass& c : pass_.Result()) {
    ++counts[static_cast<size_t>(c.pattern)];
  }
  std::vector<std::pair<std::string, uint64_t>> mix;
  for (size_t i = 0; i < counts.size(); ++i) {
    if (counts[i] > 0) {
      mix.emplace_back(UsagePatternName(static_cast<UsagePattern>(i)), counts[i]);
    }
  }
  return mix;
}

void PatternTracker::SyncObs() {
  if (gauge_tracked_ != nullptr) {
    gauge_tracked_->Set(static_cast<int64_t>(tracked()));
  }
}

}  // namespace live
}  // namespace tempo

#include "src/live/slack_tracker.h"

#include <algorithm>
#include <cstdint>
#include <span>

namespace tempo {
namespace live {

SlackTracker::SlackTracker(std::string stats_label) {
  if (!stats_label.empty()) {
    obs::Registry& registry = obs::Registry::Global();
    const obs::Labels labels = {{"analyzer", stats_label}};
    slack_hist_ = registry.GetHistogram(
        "live_slack_ns", labels, "firing slack (fire - requested) per expired span");
    gauge_p50_ = registry.GetGauge("live_slack_p50_ns", labels,
                                   "p50 firing slack over the run so far");
    gauge_p99_ = registry.GetGauge("live_slack_p99_ns", labels,
                                   "p99 firing slack over the run so far");
    gauge_max_ = registry.GetGauge("live_slack_max_ns", labels,
                                   "largest firing slack seen");
    gauge_open_ = registry.GetGauge("live_slack_open_timers", labels,
                                    "timers currently armed and unclosed");
    counter_early_ = registry.GetCounter("live_slack_early_fires", labels,
                                         "fires that beat their requested time");
  }
}

void SlackTracker::Ingest(const TraceRecord& record) {
  // One record closes at most one span, so the histogram sample is the
  // fold's sum delta — no second slack computation to drift from the
  // offline pass.
  const uint64_t count_before = state_.total().count;
  const uint64_t sum_before = state_.total().sum;
  state_.Accumulate(std::span<const TraceRecord>(&record, 1));
  if (slack_hist_ != nullptr && state_.total().count != count_before) {
    slack_hist_->Record(state_.total().sum - sum_before);
  }
}

void SlackTracker::SyncObs() {
  if (gauge_p50_ == nullptr) {
    return;
  }
  // Gauges are signed: a slack past INT64_MAX saturates instead of wrapping.
  const auto ns = [](uint64_t slack) {
    return static_cast<int64_t>(std::min<uint64_t>(slack, INT64_MAX));
  };
  const SlackHist& total = state_.total();
  gauge_p50_->Set(ns(total.QuantileNs(0.50)));
  gauge_p99_->Set(ns(total.QuantileNs(0.99)));
  gauge_max_->Set(ns(total.max));
  gauge_open_->Set(static_cast<int64_t>(state_.open_spans()));
  counter_early_->AdvanceTo(state_.early_fires());
}

}  // namespace live
}  // namespace tempo

// Live usage-pattern mix over the relay drain path.
//
// A PatternTracker taps the same ordered record stream a LiveAnalyzer does
// (hook Ingest into the drainer's EmitFn) and folds it through the exact
// ClassifyPass the offline report runs: episodes are clustered by call site
// and thread as they arrive (Section 3.3), and each group is classified by
// ClassifyGroup under the 2 ms variance rule of Section 4.1.1 only when a
// view asks for the mix. The live pattern pane and Figure 2 are one
// computation over the same records.
//
// Memory is bounded by `capacity` episodes. When the fold holds that many
// and another arm arrives, the tracker drops the fold, adds the groups it
// held to evictions() (live_classifier_evictions), and starts a new one;
// the mix then covers the records fed since that reset. With no evictions
// it equals ClassifyPass over every record fed. Dropping whole groups one
// at a time would not bound memory: a few busy groups hold almost every
// episode (6 minutes of vista-desktop is 48 groups but 500,933 episodes).
//
// Single-threaded consumer like the drainer that feeds it; the instruments
// follow the registry's single-writer rule. An empty stats_label disables
// instrumentation entirely (fleet host replicas).

#ifndef TEMPO_SRC_LIVE_PATTERN_TRACKER_H_
#define TEMPO_SRC_LIVE_PATTERN_TRACKER_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/analysis/classify.h"
#include "src/obs/metrics.h"
#include "src/trace/record.h"

namespace tempo {
namespace live {

class PatternTracker {
 public:
  // Episodes held before the fold resets: 30 minutes of the busiest
  // workload, vista-desktop (about 2.6M arms), fit.
  static constexpr size_t kDefaultCapacity = size_t{4} << 20;

  explicit PatternTracker(std::string stats_label = "live",
                          size_t capacity = kDefaultCapacity);
  PatternTracker(const PatternTracker&) = delete;
  PatternTracker& operator=(const PatternTracker&) = delete;

  // Consumes one record of the drainer's ordered merge. Hot path.
  void Ingest(const TraceRecord& record);

  // Pattern name -> groups classified so (single-use included), in
  // UsagePattern order, patterns with no group left out. Classifies every
  // group of the fold: call when a view is rendered, not per record.
  std::vector<std::pair<std::string, uint64_t>> Mix() const;

  // The fold since the last reset: its cluster groups and episodes, and
  // the groups resets have dropped.
  size_t tracked() const { return pass_.builder().groups(); }
  size_t episodes() const { return pass_.builder().episodes(); }
  uint64_t evictions() const { return evictions_; }

  // Publishes the tracked-group gauge into obs; call before a registry
  // snapshot.
  void SyncObs();

 private:
  size_t capacity_;
  ClassifyPass pass_;
  uint64_t evictions_ = 0;
  obs::Counter* metric_evictions_ = nullptr;
  obs::Gauge* gauge_tracked_ = nullptr;
};

}  // namespace live
}  // namespace tempo

#endif  // TEMPO_SRC_LIVE_PATTERN_TRACKER_H_

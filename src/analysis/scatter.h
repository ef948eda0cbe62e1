// Expiry/cancellation scatter data — Figures 8-11.
//
// For every episode, the paper plots the value the timer was set to against
// the percentage of that value after which the timer was canceled or
// expired, aggregating equal points into sized circles. Points above 250 %
// are cut off; timers set to expire immediately or in the past are not
// plotted. The hyperbolic curve at short timeouts comes from the
// near-constant delivery latency of tick-driven expiry.

#ifndef TEMPO_SRC_ANALYSIS_SCATTER_H_
#define TEMPO_SRC_ANALYSIS_SCATTER_H_

#include <set>
#include <vector>

#include "src/analysis/lifetimes.h"
#include "src/analysis/pass.h"

namespace tempo {

// One aggregated scatter point.
struct ScatterPoint {
  double timeout_seconds = 0.0;  // bucket centre (log-scale bucketing)
  double percent = 0.0;          // bucket centre of elapsed/timeout * 100
  uint64_t count = 0;            // episodes aggregated into this point
  bool expired = false;          // vs canceled
};

struct ScatterOptions {
  double max_percent = 250.0;   // cut-off, as in the figures
  int buckets_per_decade = 12;  // timeout-axis resolution
  double percent_bucket = 5.0;  // percent-axis resolution
  bool include_resets = false;  // count re-arms as cancellations
  // Exclude these pids (X/icewm filter, as in the figures).
  std::set<Pid> exclude_pids;
};

// Streaming scatter data (Figures 8-11) as an AnalysisPass: records
// stream into a mergeable EpisodeBuilder; bucketing happens at Result.
class ScatterPass : public AnalysisPass {
 public:
  explicit ScatterPass(ScatterOptions options = {}) : options_(std::move(options)) {}

  const char* name() const override { return "scatter"; }
  std::unique_ptr<AnalysisPass> Fork() const override;
  void Accumulate(std::span<const TraceRecord> records) override;
  void Merge(AnalysisPass&& other) override;
  void Render(RenderSink& sink) override;

  // The aggregated points; call after all merges.
  std::vector<ScatterPoint> Result() const;

 private:
  ScatterOptions options_;
  EpisodeBuilder episodes_;
};

}  // namespace tempo

#endif  // TEMPO_SRC_ANALYSIS_SCATTER_H_

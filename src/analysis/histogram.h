// Timeout-value histograms — Figures 3, 5, 6 and 7.
//
// The paper's headline observation: the distribution of timeout values is
// dominated by a small set of round, programmer-chosen constants. The
// histogram buckets observed set values, quantising kernel-side Linux
// values to whole jiffies (to undo conversion jitter) and user/Vista values
// to 0.1 ms. Buckets below a percentage threshold (2 % in the paper) are
// dropped. Optional filters reproduce the paper's variants: syscall-only
// values (Figure 6) and traces with the X/icewm select-countdown timers
// removed (Figure 5).

#ifndef TEMPO_SRC_ANALYSIS_HISTOGRAM_H_
#define TEMPO_SRC_ANALYSIS_HISTOGRAM_H_

#include <functional>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "src/analysis/classify.h"
#include "src/analysis/pass.h"
#include "src/trace/record.h"

namespace tempo {

// One histogram bucket.
struct ValueBucket {
  SimDuration value = 0;   // canonical bucket value
  uint64_t count = 0;      // number of set operations
  double percent = 0.0;    // of all counted sets
  int64_t jiffies = -1;    // jiffy count for kernel-side Linux values
};

// Histogram configuration.
struct HistogramOptions {
  // Drop buckets below this percentage of all sets (paper: 2 %).
  double min_percent = 2.0;
  // Quantise kernel (non-user) values to jiffies; set false for Vista.
  bool jiffy_quantise_kernel = true;
  // Count only records flagged kFlagUser (Figure 6).
  bool user_only = false;
  // Exclude records from these pids (the X/icewm filter of Figure 5).
  std::set<Pid> exclude_pids;
  // Exclude timers classified as select countdowns (alternative filter).
  bool exclude_countdowns = false;
  ClassifyOptions classify;  // used when exclude_countdowns is set
};

// Result: buckets above threshold plus the coverage they represent.
struct ValueHistogram {
  std::vector<ValueBucket> buckets;  // sorted by value
  uint64_t total_sets = 0;           // sets considered (after filters)
  double coverage_percent = 0.0;     // % of sets the shown buckets cover
};

// Streaming value histogram (Figures 3/5/6/7) as an AnalysisPass. Bucket
// counts merge by addition; when exclude_countdowns is set the pass also
// tracks per-timer contributions and an EpisodeBuilder, so the countdown
// timers identified at Result time can be subtracted exactly — the same
// counts the serial filter produces.
class HistogramPass : public AnalysisPass {
 public:
  explicit HistogramPass(HistogramOptions options = {}, bool show_jiffies = true)
      : options_(std::move(options)), show_jiffies_(show_jiffies) {}

  const char* name() const override { return "values"; }
  std::unique_ptr<AnalysisPass> Fork() const override;
  void Accumulate(std::span<const TraceRecord> records) override;
  void Merge(AnalysisPass&& other) override;
  void Render(RenderSink& sink) override;

  // The finished histogram; call after all merges.
  ValueHistogram Result() const;

 private:
  struct BucketKey {
    int64_t quantised = 0;
    bool jiffy = false;
    bool operator<(const BucketKey& o) const {
      if (jiffy != o.jiffy) {
        return jiffy < o.jiffy;
      }
      return quantised < o.quantised;
    }
  };

  BucketKey KeyFor(const TraceRecord& r) const;

  HistogramOptions options_;
  bool show_jiffies_;  // render knob (tracestat --no-jiffies)
  std::map<BucketKey, uint64_t> counts_;
  uint64_t total_ = 0;
  // exclude_countdowns bookkeeping: what each stable timer contributed
  // (to subtract if it classifies as a countdown), and the episodes the
  // classification runs on.
  std::map<TimerId, std::map<BucketKey, uint64_t>> per_timer_;
  EpisodeBuilder episodes_;
};

}  // namespace tempo

#endif  // TEMPO_SRC_ANALYSIS_HISTOGRAM_H_

// Per-process timer-set rate timelines — Figure 1.
//
// "The graph shows the number of timers used per second by Outlook,
//  Internet Explorer, system processes and the kernel over a 90 second
//  excerpt from a trace."

#ifndef TEMPO_SRC_ANALYSIS_RATES_H_
#define TEMPO_SRC_ANALYSIS_RATES_H_

#include <map>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/analysis/pass.h"
#include "src/trace/record.h"

namespace tempo {

// One labelled series of events-per-window counts.
struct RateSeries {
  std::string label;
  std::vector<uint64_t> per_window;
};

struct RateOptions {
  SimDuration window = kSecond;
  SimTime start = 0;
  SimTime end = 0;  // 0: run to the last record
  // Count only arming operations (set/block); false counts all accesses.
  bool sets_only = true;
};

// Groups pids under labels ("Outlook", "System", ...); pids not mentioned
// fall under `default_label` (empty: dropped).
struct RateGrouping {
  std::map<Pid, std::string> pid_labels;
  std::string default_label = "System";
  std::string kernel_label = "Kernel";

  // The label `pid` counts under; empty means dropped. The one labelling
  // rule of RatesPass and the live analyzer.
  const std::string& LabelFor(Pid pid) const;
};

// The derived-end rule's tally for one series. When the analysis range
// ends at the last record's timestamp, exclusive, the counted records
// sitting on the running maximum timestamp may yet fall outside it. The
// tally counts them under the maximum they sat on, so a later maximum
// clears it without a visit. Shared by RatesPass and the live analyzer.
class EndTally {
 public:
  // Counts one record at `max_ts`, the running maximum timestamp.
  void Add(SimTime max_ts) {
    if (stamp_ != max_ts) {
      stamp_ = max_ts;
      count_ = 0;
    }
    ++count_;
  }
  // Records counted at `max_ts`; 0 once the maximum has moved past them.
  uint64_t At(SimTime max_ts) const { return stamp_ == max_ts ? count_ : 0; }
  // Absorbs the tally of the range right after ours; `max_ts` is the
  // merged maximum.
  void Merge(const EndTally& later, SimTime max_ts) {
    count_ = At(max_ts) + later.At(max_ts);
    stamp_ = max_ts;
  }

 private:
  uint64_t count_ = 0;
  SimTime stamp_ = 0;
};

// Streaming rate timelines (Figure 1) as an AnalysisPass. Each pid is
// resolved to its label's series once per pass; window counts are kept
// sparse and merge by addition. The one subtlety is the end-of-range rule
// when options.end == 0: the serial code runs to the last record's
// timestamp, exclusive, so records at that exact timestamp never count.
// The pass counts them provisionally in an EndTally per series; Result
// takes them out once the true trace end is known.
class RatesPass : public AnalysisPass {
 public:
  RatesPass(RateGrouping grouping, RateOptions options)
      : grouping_(std::move(grouping)), options_(options) {}
  // The pid cache points into the pass's own series map.
  RatesPass(const RatesPass&) = delete;
  RatesPass& operator=(const RatesPass&) = delete;

  const char* name() const override { return "rates"; }
  std::unique_ptr<AnalysisPass> Fork() const override;
  void Accumulate(std::span<const TraceRecord> records) override;
  void Merge(AnalysisPass&& other) override;
  void Render(RenderSink& sink) override;

  // The finished series, ordered by label; call after all merges.
  std::vector<RateSeries> Result() const;

 private:
  struct Series {
    // (window index, count) runs in record order: a window recurs only
    // across a step back in time, and Result sums its runs.
    std::vector<std::pair<uint64_t, uint64_t>> windows;
    uint64_t total = 0;
    EndTally at_end;  // read in derived-end mode only

    void Add(uint64_t window, uint64_t count);
  };

  RateGrouping grouping_;
  RateOptions options_;
  // Series by label; the map keeps Result's label order, and its nodes
  // stay put, so the pid cache can point into it.
  std::map<std::string, Series> series_;
  std::unordered_map<Pid, Series*> pid_series_;  // nullptr: dropped
  SimTime max_ts_ = 0;
  bool any_records_ = false;
};

}  // namespace tempo

#endif  // TEMPO_SRC_ANALYSIS_RATES_H_

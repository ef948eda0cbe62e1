// Per-process timer-set rate timelines — Figure 1.
//
// "The graph shows the number of timers used per second by Outlook,
//  Internet Explorer, system processes and the kernel over a 90 second
//  excerpt from a trace."

#ifndef TEMPO_SRC_ANALYSIS_RATES_H_
#define TEMPO_SRC_ANALYSIS_RATES_H_

#include <map>
#include <string>
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
};

// Streaming rate timelines (Figure 1) as an AnalysisPass. Window counts
// are kept sparse and merge by addition. The one subtlety is the
// end-of-range rule when options.end == 0: the serial code runs to the
// last record's timestamp, exclusive, so records at that exact timestamp
// never count. The pass counts them provisionally and tracks how many
// landed on the running maximum timestamp; Result subtracts them once the
// true trace end is known.
class RatesPass : public AnalysisPass {
 public:
  RatesPass(RateGrouping grouping, RateOptions options)
      : grouping_(std::move(grouping)), options_(options) {}

  const char* name() const override { return "rates"; }
  std::unique_ptr<AnalysisPass> Fork() const override;
  void Accumulate(std::span<const TraceRecord> records) override;
  void Merge(AnalysisPass&& other) override;
  void Render(RenderSink& sink) override;

  // The finished series, ordered by label; call after all merges.
  std::vector<RateSeries> Result() const;

 private:
  RateGrouping grouping_;
  RateOptions options_;
  // label -> window index -> count (sparse).
  std::map<std::string, std::map<uint64_t, uint64_t>> windows_;
  // Counted records sitting exactly on max_ts_ (derived-end mode only).
  std::map<std::string, uint64_t> at_max_;
  SimTime max_ts_ = 0;
  bool any_records_ = false;
};

}  // namespace tempo

#endif  // TEMPO_SRC_ANALYSIS_RATES_H_

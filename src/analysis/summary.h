// Trace summaries — the rows of Tables 1 and 2.

#ifndef TEMPO_SRC_ANALYSIS_SUMMARY_H_
#define TEMPO_SRC_ANALYSIS_SUMMARY_H_

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "src/analysis/lifetimes.h"
#include "src/analysis/pass.h"
#include "src/trace/record.h"

namespace tempo {

// Aggregate statistics of one trace, matching the fields the paper reports:
// "timers shows the total number of allocated timer data structures in each
//  trace, concurrency the maximum number of outstanding timers at any time,
//  accesses is the total number of accesses to the timer subsystem, and
//  user-space / kernel show the number of explicit and implicit accesses
//  from user-space and the kernel. Set, expired, and canceled show the
//  total number of operations of each type."
struct TraceSummary {
  std::string label;
  uint64_t timers = 0;       // distinct timer identities observed
  uint64_t concurrency = 0;  // max simultaneously outstanding
  uint64_t accesses = 0;     // total records
  uint64_t user_space = 0;   // records flagged kFlagUser
  uint64_t kernel = 0;       // the rest
  uint64_t set = 0;          // kSet + kBlock (arming operations)
  uint64_t expired = 0;      // kExpire + timed-out unblocks
  uint64_t canceled = 0;     // kCancel + satisfied unblocks
};

// Streaming summary (Tables 1/2) as an AnalysisPass.
//
// Counters merge by addition. The per-timer state is one TimerJoin
// (lifetimes.h), the join the lifetime folds use: a timer is outstanding
// while its entry is open, TimerJoin::Merge carries the open set across a
// chunk boundary, and its entries plus the timers seen only in init
// records give `timers`. The subtle field is `concurrency`, the all-time
// maximum of the outstanding set, which depends on timers carried over a
// chunk boundary. Each pass therefore records, per "segment" between
// first touches of distinct timers, the maximum open count it reached; at
// merge time the later pass's segment maxima are raised by however many
// of the earlier pass's open timers it had not yet touched. That
// reproduces the serial maximum exactly for any chunking (see
// episode_fold_test).
class SummaryPass : public AnalysisPass {
 public:
  explicit SummaryPass(std::string label) : label_(std::move(label)) {}

  const char* name() const override { return "summary"; }
  std::unique_ptr<AnalysisPass> Fork() const override;
  void Accumulate(std::span<const TraceRecord> records) override;
  void Merge(AnalysisPass&& other) override;
  void Render(RenderSink& sink) override;

  // The finished summary; call after all merges.
  TraceSummary Result() const;

 private:
  std::string label_;
  TraceSummary partial_;  // counter fields only; timers/concurrency at Result
  TimerJoin<std::monostate> join_;
  // The join's timers in order of first non-init operation, and the max
  // open count sampled after each of those first touches (index k: after
  // the k-th touch; 0 = no arming sample in that span).
  std::vector<TimerId> touched_order_;
  std::vector<uint64_t> segment_max_ = {0};
};

}  // namespace tempo

#endif  // TEMPO_SRC_ANALYSIS_SUMMARY_H_

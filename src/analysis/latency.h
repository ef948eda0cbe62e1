// Timer firing-slack attribution — the latency observatory's offline core.
//
// The paper's central mechanic is firing *inaccuracy*: jiffy quantisation,
// cascade delay, round_jiffies and deferrable timers all move the moment a
// timer actually fires away from the moment the caller asked for. Rates and
// counts (rates.h) say how often timers fire; this pass says how *late*.
//
// Every kSet/kBlock record carries both the requested relative timeout and
// the post-rounding absolute expiry, and every kExpire record carries the
// delivery timestamp, so three quantities are derivable per span with zero
// wire-format changes:
//
//   requested = set_time + timeout        what the caller asked for
//   deadline  = expiry (post-rounding)    what the kernel scheduled
//   slack     = fire - requested          total user-visible lateness
//     ~ skew   (deadline - requested)     rounding / quantisation, deliberate
//     + firing (fire - deadline)          tick + cascade machinery delay
//
// (each component clamped at zero, so the sum over-counts only when
// rounding moved the deadline *earlier* than the request)
//
// SlackState is the mergeable single-stream fold shared by the offline
// LatencyPass and the live SlackTracker (src/live/slack_tracker.h), which
// is what makes "live == offline over the same records" a structural fact
// rather than a test hope. The join is per TimerId, in the flat
// TimerJoin table the episode builder uses too (lifetimes.h), so the two
// folds share one merge rule; Vista-style kFlagDynamicAlloc ids (fresh id
// per use, Section 3.3) still join exactly because each use gets a unique
// id, and the blame table clusters them back together by call-site.

#ifndef TEMPO_SRC_ANALYSIS_LATENCY_H_
#define TEMPO_SRC_ANALYSIS_LATENCY_H_

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/analysis/lifetimes.h"
#include "src/analysis/pass.h"
#include "src/sim/process.h"
#include "src/trace/callsite.h"
#include "src/trace/codec.h"
#include "src/trace/record.h"

namespace tempo {

// Standalone mergeable log2 histogram with the same bucket geometry and
// quantile math as obs::Histogram (bucket i holds samples of bit-width i).
// obs::Histogram instances are owned by the registry and can't travel, so
// analysis state and fleet digests carry this value type instead.
struct SlackHist {
  static constexpr size_t kBucketCount = 64;

  std::array<uint64_t, kBucketCount> buckets{};
  uint64_t count = 0;
  uint64_t sum = 0;
  uint64_t min = 0;  // meaningful only when count > 0
  uint64_t max = 0;

  void Record(uint64_t sample);
  void Merge(const SlackHist& other);
  // Value at quantile q in [0, 1], interpolated within the winning bucket
  // and clamped to the observed extremes; 0 when empty.
  double Quantile(double q) const;
  // Quantile(q) truncated to whole nanoseconds; saturates where the double
  // rounds up past UINT64_MAX.
  uint64_t QuantileNs(double q) const;
  bool empty() const { return count == 0; }
  double mean() const {
    return count == 0 ? 0.0 : static_cast<double>(sum) / static_cast<double>(count);
  }

  bool operator==(const SlackHist&) const = default;
};

// Slack attribution classes, split by the arming record's flags. A timer
// belongs to exactly one class; precedence is deferrable > rounded >
// high-res > plain so e.g. a rounded deferrable timer is blamed on
// deferral (the stronger slack mechanism).
enum class SlackClass : uint8_t {
  kDeferrable = 0,
  kRounded = 1,
  kHighRes = 2,
  kPlain = 3,
};
inline constexpr size_t kSlackClassCount = 4;

// The class an arming record's flags put it in.
SlackClass SlackClassFor(uint16_t flags);

// Short class label ("deferrable", ...).
const char* SlackClassName(SlackClass c);

// Per-key blame aggregate for the top-K tables.
struct SlackBlame {
  uint64_t spans = 0;      // fired spans attributed to this key
  uint64_t slack_sum = 0;  // total slack ns across those spans, saturating
  uint64_t slack_max = 0;

  void Add(uint64_t slack) {
    ++spans;
    AddToSum(slack);
    if (slack > slack_max) {
      slack_max = slack;
    }
  }
  void Merge(const SlackBlame& o) {
    spans += o.spans;
    AddToSum(o.slack_sum);
    if (o.slack_max > slack_max) {
      slack_max = o.slack_max;
    }
  }
  void AddToSum(uint64_t slack) {
    if (__builtin_add_overflow(slack_sum, slack, &slack_sum)) {
      slack_sum = UINT64_MAX;
    }
  }
  bool operator==(const SlackBlame&) const = default;
};

// The mergeable set->fire join. Feed time-ordered batches with Accumulate;
// to combine two states that covered adjacent ranges of the same trace,
// call left.Merge(std::move(right)) where `right` saw strictly later
// records. The merge is exact (TimerJoin's rule, shared with
// EpisodeBuilder): a span left open at the end of the left range is closed
// by the right range's first operation on that timer, and a closing op the
// right range counted as unmatched is re-attributed once the left range
// supplies its arm. Equality compares open arms and first ops by content,
// not by table layout.
class SlackState {
 public:
  void Accumulate(std::span<const TraceRecord> records);
  void Merge(SlackState&& later);

  // Aggregates. `total` is the headline fire-vs-requested slack; `firing`
  // and `skew` are its machinery / rounding components; `classes[c]` splits
  // `total` by SlackClass.
  const SlackHist& total() const { return total_; }
  const SlackHist& firing() const { return firing_; }
  const SlackHist& skew() const { return skew_; }
  const SlackHist& cls(SlackClass c) const { return classes_[static_cast<size_t>(c)]; }

  uint64_t fired_spans() const { return total_.count; }
  uint64_t canceled_spans() const { return canceled_spans_; }
  uint64_t rearmed_spans() const { return rearmed_spans_; }
  // Fires that beat their post-rounding deadline (e.g. an expiry clamped
  // by a monotonic Advance); they record slack 0.
  uint64_t early_fires() const { return early_fires_; }
  // Closing ops with no matching arm in the observed range.
  uint64_t unmatched_closes() const { return unmatched_closes_; }
  uint64_t open_spans() const { return join_.open_count(); }

  const std::map<Pid, SlackBlame>& by_pid() const { return by_pid_; }
  const std::map<CallsiteId, SlackBlame>& by_callsite() const { return by_callsite_; }

  bool operator==(const SlackState&) const = default;

 private:
  // One armed, not-yet-closed timer.
  struct OpenArm {
    SimTime set_time = 0;
    SimDuration timeout = 0;
    SimTime expiry = 0;
    CallsiteId callsite = kUnknownCallsite;
    Pid pid = kKernelPid;
    uint16_t flags = 0;
    bool operator==(const OpenArm&) const = default;
  };
  void CloseFired(const OpenArm& arm, SimTime fire);
  // Counts how a span armed as `arm` ended.
  void EndSpan(const OpenArm& arm, EpisodeEnd end, SimTime at);

  SlackHist total_;
  SlackHist firing_;
  SlackHist skew_;
  std::array<SlackHist, kSlackClassCount> classes_;
  uint64_t canceled_spans_ = 0;
  uint64_t rearmed_spans_ = 0;
  uint64_t early_fires_ = 0;
  uint64_t unmatched_closes_ = 0;
  std::map<Pid, SlackBlame> by_pid_;
  std::map<CallsiteId, SlackBlame> by_callsite_;
  TimerJoin<OpenArm> join_;
};

struct LatencyOptions {
  size_t top_k = 10;  // rows in each blame table
};

// Firing-slack attribution as an AnalysisPass. The callsite registry may
// be null (blame rows then show raw ids); when set it must outlive the
// pass. Honors the ordered-merge contract, so --jobs N output is
// byte-identical; declares fields() so v3 reads skip the stack and tid
// stripes.
class LatencyPass : public AnalysisPass {
 public:
  explicit LatencyPass(const CallsiteRegistry* callsites = nullptr,
                       LatencyOptions options = {})
      : callsites_(callsites), options_(options) {}

  const char* name() const override { return "latency"; }
  std::unique_ptr<AnalysisPass> Fork() const override;
  void Accumulate(std::span<const TraceRecord> records) override;
  void Merge(AnalysisPass&& other) override;
  void Render(RenderSink& sink) override;
  uint16_t fields() const override {
    return kAllTraceFields & ~(kFieldStack | kFieldTid);
  }

  // The finished join; call after all merges.
  const SlackState& state() const { return state_; }

 private:
  const CallsiteRegistry* callsites_;
  LatencyOptions options_;
  SlackState state_;
};

// The report body LatencyPass renders, exposed so the live path
// (tempotop's latency pane) prints the identical section from a
// SlackTracker's state. `process_names` maps pids to names for the blame
// table and may be empty.
std::string RenderLatencyReport(const SlackState& state, const CallsiteRegistry* callsites,
                                const std::map<Pid, std::string>& process_names,
                                size_t top_k);

}  // namespace tempo

#endif  // TEMPO_SRC_ANALYSIS_LATENCY_H_

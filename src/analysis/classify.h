// Usage-pattern classifier (Section 4.1.1).
//
// A repeatedly used timer shows one of a handful of behaviours:
//   * periodic  — always expires and is immediately re-set to the same
//                 relative value (page-out timer, workqueue tickers);
//   * watchdog  — never expires: re-set to the same relative value before
//                 its expiry (console blank timeout);
//   * delay     — usually expires and is set again to the same value after
//                 a non-trivial gap (fixed-interval sleeps);
//   * timeout   — almost never expires: canceled shortly after being set,
//                 and set again later to the same value (RPC calls, IDE
//                 commands);
//   * deferred  — (Vista) deferred repeatedly like a watchdog, but expires
//                 after a few iterations and is later restarted (lazy
//                 registry-handle close);
//   * countdown — select-style: successive sets count the previous value
//                 down by the elapsed time until it reaches zero (the
//                 X/icewm idiom of Figure 4);
//   * other     — no regularity (select loops multiplexing many sources,
//                 adaptive timers).
//
// The classifier allows 2 ms of variance when comparing timeout values and
// when testing "immediately re-set", matching the jitter bound the paper
// determined experimentally (Sections 3.1, 4.1.1).

#ifndef TEMPO_SRC_ANALYSIS_CLASSIFY_H_
#define TEMPO_SRC_ANALYSIS_CLASSIFY_H_

#include <map>
#include <string>
#include <vector>

#include "src/analysis/lifetimes.h"
#include "src/analysis/pass.h"

namespace tempo {

// The usage patterns of Section 4.1.1 (+ countdown, which the paper
// identifies separately in Section 4.2 and filters for Figure 5).
enum class UsagePattern : uint8_t {
  kPeriodic = 0,
  kWatchdog = 1,
  kDelay = 2,
  kTimeout = 3,
  kDeferred = 4,
  kCountdown = 5,
  kOther = 6,
  kSingleUse = 7,  // armed fewer than 3 times: no pattern to speak of
};

const char* UsagePatternName(UsagePattern pattern);

// Classifier tuning.
struct ClassifyOptions {
  // Variance allowed when comparing timeout values / re-set gaps.
  SimDuration variance;
  // Minimum episodes before a pattern is assigned.
  size_t min_episodes;
  // Fraction of episodes that must agree for the dominant behaviours.
  double dominance;

  ClassifyOptions() : variance(2 * kMillisecond), min_episodes(3), dominance(0.7) {}
};

// Classification result for one timer (cluster).
struct TimerClass {
  ClusterKey key;
  CallsiteId callsite = kUnknownCallsite;
  Pid pid = kKernelPid;
  UsagePattern pattern = UsagePattern::kOther;
  size_t episodes = 0;
  SimDuration dominant_timeout = 0;  // most common value (0 if none)
  bool user = false;
};

// Classifies one group of episodes (same cluster, time-ordered).
TimerClass ClassifyGroup(const std::vector<Episode>& group, const ClassifyOptions& options);

// Streaming usage-pattern classification (Figure 2) as an AnalysisPass.
// Classification itself needs every episode of a timer, so the pass
// streams records into a mergeable EpisodeBuilder and classifies once,
// at Result/Render time.
class ClassifyPass : public AnalysisPass {
 public:
  explicit ClassifyPass(ClassifyOptions options = ClassifyOptions(),
                        std::string column = "trace")
      : options_(options), column_(std::move(column)) {}

  const char* name() const override { return "patterns"; }
  std::unique_ptr<AnalysisPass> Fork() const override;
  void Accumulate(std::span<const TraceRecord> records) override;
  void Merge(AnalysisPass&& other) override;
  void Render(RenderSink& sink) override;

  // Per-timer classifications; call after all merges.
  std::vector<TimerClass> Result() const;

  // The episode fold Result classifies.
  const EpisodeBuilder& builder() const { return episodes_; }

 private:
  ClassifyOptions options_;
  std::string column_;  // column label in the rendered histogram
  EpisodeBuilder episodes_;
};

// Histogram for Figure 2: fraction of timers per pattern (single-use timers
// are excluded, as the paper's percentages cover regularly used timers).
std::map<UsagePattern, double> PatternHistogram(const std::vector<TimerClass>& classes);

}  // namespace tempo

#endif  // TEMPO_SRC_ANALYSIS_CLASSIFY_H_

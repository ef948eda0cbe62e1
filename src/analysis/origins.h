// Origins and classification of frequent timeout values — Table 3.
//
// The paper exploits the high correlation between Linux timeout values and
// static timer-structure addresses to attribute each frequent value to the
// kernel subsystem or application that sets it, and to classify its usage
// pattern. tempo has call-site labels on every record, so the attribution
// is exact; the interesting output is the same as the paper's: which value
// belongs to whom, and what pattern it follows.

#ifndef TEMPO_SRC_ANALYSIS_ORIGINS_H_
#define TEMPO_SRC_ANALYSIS_ORIGINS_H_

#include <string>
#include <vector>

#include "src/analysis/classify.h"
#include "src/trace/callsite.h"

namespace tempo {

// One row: a timeout value, one origin of it, and that origin's pattern.
struct OriginRow {
  SimDuration value = 0;
  std::string origin;
  UsagePattern pattern = UsagePattern::kOther;
  uint64_t sets = 0;  // arming operations with this value from this origin
  bool user = false;
};

struct OriginOptions {
  // Include values whose total share is at least this percentage...
  double min_percent = 0.5;
  // ...and always include values at least this large (the paper keeps
  // infrequent-but-interesting constants like the 7200 s keepalive).
  SimDuration always_include_above = 6 * kSecond;
  ClassifyOptions classify;
};

// Aggregates already-computed classifications into the table. Rows are
// sorted by value, then origin.
std::vector<OriginRow> ComputeOriginsFromClasses(const std::vector<TimerClass>& classes,
                                                 const CallsiteRegistry& callsites,
                                                 const OriginOptions& options);

// Streaming origins table (Table 3) as an AnalysisPass. The registry must
// outlive the pass (tools keep the loaded trace's registry alive).
class OriginsPass : public AnalysisPass {
 public:
  OriginsPass(const CallsiteRegistry* callsites, OriginOptions options = {})
      : callsites_(callsites), options_(std::move(options)) {}

  const char* name() const override { return "origins"; }
  std::unique_ptr<AnalysisPass> Fork() const override;
  void Accumulate(std::span<const TraceRecord> records) override;
  void Merge(AnalysisPass&& other) override;
  void Render(RenderSink& sink) override;

  // The finished table; call after all merges.
  std::vector<OriginRow> Result() const;

 private:
  const CallsiteRegistry* callsites_;
  OriginOptions options_;
  EpisodeBuilder episodes_;
};

}  // namespace tempo

#endif  // TEMPO_SRC_ANALYSIS_ORIGINS_H_

// Quickstart: trace a workload and analyse its timer usage.
//
// Runs a short Linux "idle desktop" trace on the simulated machine, then
// runs the paper's analysis pipeline over it: trace summary (Table 1
// style), usage-pattern classification (Figure 2), common timeout values
// (Figure 3) and the origins table (Table 3).

#include <cstdio>

#include "src/analysis/classify.h"
#include "src/analysis/histogram.h"
#include "src/analysis/origins.h"
#include "src/analysis/render.h"
#include "src/analysis/summary.h"
#include "src/trace/codec.h"
#include "src/workloads/linux_workloads.h"

int main() {
  using namespace tempo;

  // 1. Run a five-minute idle-desktop trace (the paper uses 30 minutes).
  WorkloadOptions options;
  options.duration = 5 * kMinute;
  options.seed = 42;
  TraceRun run = RunLinuxIdle(options);
  std::printf("traced %zu records over %s of simulated time\n\n", run.records.size(),
              FormatDuration(options.duration).c_str());

  // A peek at the raw trace.
  std::printf("first records:\n");
  for (size_t i = 0; i < run.records.size() && i < 6; ++i) {
    std::printf("  %s\n", FormatRecord(run.records[i], run.callsites()).c_str());
  }
  std::printf("\n");

  // 2. Summary statistics (the Table 1 row for this workload). Every
  // analysis is a pass: feed it the records, then read its result.
  SummaryPass summary(run.label);
  summary.Accumulate(run.records);
  std::printf("%s\n", RenderSummaryTable({summary.Result()}).c_str());

  // 3. Usage-pattern classification (Figure 2).
  ClassifyPass classify;
  classify.Accumulate(run.records);
  std::printf("usage patterns:\n%s\n",
              RenderPatternHistogram({{run.label, PatternHistogram(classify.Result())}}).c_str());

  // 4. Common timeout values (Figure 3).
  HistogramPass histogram;
  histogram.Accumulate(run.records);
  std::printf("common timeout values:\n%s\n",
              RenderValueHistogram(histogram.Result(), /*show_jiffies=*/true).c_str());

  // 5. Who sets which value (Table 3).
  OriginsPass origins(&run.callsites());
  origins.Accumulate(run.records);
  std::printf("origins of frequent values:\n%s", RenderOrigins(origins.Result()).c_str());
  return 0;
}

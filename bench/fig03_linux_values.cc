// E5 — Figure 3: common Linux timer values (>= 2% of sets), per workload.

#include "bench/bench_common.h"
#include "src/analysis/histogram.h"
#include "src/analysis/render.h"
#include "src/workloads/linux_workloads.h"

int main() {
  using namespace tempo;
  PrintHeader("Figure 3", "common Linux timeout values (>= 2%), unfiltered");
  PrintPaperNote(
      "round human constants dominate: 0.204 (51 j) TCP RTO, 0.248 (62 j) USB "
      "poll, 0.5 (125 j), 1/2/3/15 s, 7200 s keepalive; Skype/Firefox add "
      "1-3 jiffy values");

  const WorkloadOptions options = BenchOptions();
  for (TraceRun& run : RunAllLinuxWorkloads(options)) {
    HistogramPass pass;  // 2% threshold, jiffy quantisation
    pass.Accumulate(run.records);
    const ValueHistogram h = pass.Result();
    std::printf("--- %s ---\n%s\n", run.label.c_str(),
                RenderValueHistogram(h, /*show_jiffies=*/true).c_str());
  }
  return 0;
}

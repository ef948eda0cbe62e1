// E7 — Figure 5: common Linux timeout values with the X/icewm
// select-countdown timers filtered out.

#include "bench/bench_common.h"
#include "src/analysis/histogram.h"
#include "src/analysis/render.h"
#include "src/workloads/linux_workloads.h"

int main() {
  using namespace tempo;
  PrintHeader("Figure 5", "common Linux values (>= 2%), X/icewm countdowns filtered");
  PrintPaperNote(
      "after filtering the select countdowns, almost all remaining values "
      "are compile-time programmer constants (0.04, 0.204, 0.248, 0.5, 1, 2, "
      "3, 4, 5, 15, 7200 s)");

  const WorkloadOptions options = BenchOptions();
  for (TraceRun& run : RunAllLinuxWorkloads(options)) {
    HistogramOptions histogram_options;
    // Filter by pid (X/icewm), as the paper does, and also drop any other
    // detected countdown timers (firefox's 3-jiffy loop).
    auto x = run.pids.find("Xorg");
    auto wm = run.pids.find("icewm");
    if (x != run.pids.end()) {
      histogram_options.exclude_pids.insert(x->second);
    }
    if (wm != run.pids.end()) {
      histogram_options.exclude_pids.insert(wm->second);
    }
    histogram_options.exclude_countdowns = true;
    HistogramPass pass(histogram_options);
    pass.Accumulate(run.records);
    const ValueHistogram h = pass.Result();
    std::printf("--- %s ---\n%s\n", run.label.c_str(),
                RenderValueHistogram(h, /*show_jiffies=*/true).c_str());
  }
  return 0;
}

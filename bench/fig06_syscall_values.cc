// E8 — Figure 6: common Linux timeout values set from user space via
// system calls.

#include "bench/bench_common.h"
#include "src/analysis/histogram.h"
#include "src/analysis/render.h"
#include "src/workloads/linux_workloads.h"

int main() {
  using namespace tempo;
  PrintHeader("Figure 6", "common Linux syscall (user-space) timeout values (>= 2%)");
  PrintPaperNote(
      "human time-scales dominate user-space too: 0, 0.004-0.012 (Firefox), "
      "0.4999/0.5 (Skype), 1, 2, 5, 15, 30, 60 s");

  const WorkloadOptions options = BenchOptions();
  for (TraceRun& run : RunAllLinuxWorkloads(options)) {
    HistogramOptions histogram_options;
    histogram_options.user_only = true;
    auto x = run.pids.find("Xorg");
    auto wm = run.pids.find("icewm");
    if (x != run.pids.end()) {
      histogram_options.exclude_pids.insert(x->second);
    }
    if (wm != run.pids.end()) {
      histogram_options.exclude_pids.insert(wm->second);
    }
    HistogramPass pass(histogram_options);
    pass.Accumulate(run.records);
    const ValueHistogram h = pass.Result();
    std::printf("--- %s ---\n%s\n", run.label.c_str(),
                RenderValueHistogram(h, /*show_jiffies=*/false).c_str());
  }
  return 0;
}

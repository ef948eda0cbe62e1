// E9 — Figure 7: common Vista timeout values per workload.

#include "bench/bench_common.h"
#include "src/analysis/histogram.h"
#include "src/analysis/render.h"
#include "src/workloads/vista_workloads.h"

int main() {
  using namespace tempo;
  PrintHeader("Figure 7", "common Vista timeout values (>= 2%)");
  PrintPaperNote(
      "same story as Linux: round constants (0.001, 0.003, 0.01, 0.0156, "
      "0.1156, 0.25, 0.5, 0.5156, 1, 2, 3 s) dominate; tick-derived values "
      "(15.6 ms multiples) appear because Vista quantises to the clock "
      "interrupt");

  const WorkloadOptions options = BenchOptions();
  for (TraceRun& run : RunAllVistaWorkloads(options)) {
    HistogramOptions histogram_options;
    histogram_options.jiffy_quantise_kernel = false;  // no jiffies on Vista
    HistogramPass pass(histogram_options);
    pass.Accumulate(run.records);
    const ValueHistogram h = pass.Result();
    std::printf("--- %s ---\n%s\n", run.label.c_str(),
                RenderValueHistogram(h, /*show_jiffies=*/false).c_str());
  }
  return 0;
}

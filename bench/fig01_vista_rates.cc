// E1 — Figure 1: timer usage frequency in Vista, per process group, over a
// 90-second excerpt of the desktop trace.

#include "bench/bench_common.h"
#include "src/analysis/rates.h"
#include "src/analysis/render.h"
#include "src/workloads/vista_workloads.h"

int main() {
  using namespace tempo;
  PrintHeader("Figure 1", "Vista timer sets per second by process group (90 s excerpt)");
  PrintPaperNote(
      "kernel ~1000/s; Outlook ~70/s idle with bursts to 7000/s (the 5 s "
      "upcall-guard idiom); browser tens/s");

  WorkloadOptions options = BenchOptions();
  options.duration = 3 * kMinute;  // the figure is a 90 s excerpt anyway
  TraceRun run = RunVistaDesktop(options);

  RateGrouping grouping;
  grouping.pid_labels[run.pids.at("outlook.exe")] = "Outlook";
  grouping.pid_labels[run.pids.at("iexplore.exe")] = "Browser";
  RateOptions rate_options;
  rate_options.start = 30 * kSecond;
  rate_options.end = 120 * kSecond;  // the 90 s excerpt
  RatesPass pass(grouping, rate_options);
  pass.Accumulate(run.records);
  const auto series = pass.Result();

  std::printf("%s\n", RenderRates(series, rate_options.window).c_str());
  std::printf("per-second series (gnuplot columns):\n%s",
              RateColumns(series, rate_options.window).c_str());
  return 0;
}

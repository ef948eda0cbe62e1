// E2 — Table 1: Linux trace summary across the four workloads.

#include "bench/bench_common.h"
#include "src/analysis/render.h"
#include "src/analysis/summary.h"
#include "src/workloads/linux_workloads.h"

int main() {
  using namespace tempo;
  PrintHeader("Table 1", "Linux trace summary (Idle / Skype / Firefox / Webserver)");
  PrintPaperNote(
      "timers 47/74/95/103; concurrency 25/32/36/31; accesses "
      "165345/535686/3948490/283634; user >> kernel except Webserver; "
      "canceled > expired on Linux");

  const WorkloadOptions options = BenchOptions();
  std::vector<TraceSummary> summaries;
  for (TraceRun& run : RunAllLinuxWorkloads(options)) {
    SummaryPass pass(run.label);
    pass.Accumulate(run.records);
    summaries.push_back(pass.Result());
  }
  std::printf("%s", RenderSummaryTable(summaries).c_str());

  std::printf("\nshape checks:\n");
  const TraceSummary& idle = summaries[0];
  const TraceSummary& web = summaries[3];
  std::printf("  idle user-space > kernel:        %s (%llu vs %llu)\n",
              idle.user_space > idle.kernel ? "yes" : "NO",
              static_cast<unsigned long long>(idle.user_space),
              static_cast<unsigned long long>(idle.kernel));
  std::printf("  webserver kernel > user-space:   %s (%llu vs %llu)\n",
              web.kernel > web.user_space ? "yes" : "NO",
              static_cast<unsigned long long>(web.kernel),
              static_cast<unsigned long long>(web.user_space));
  bool canceled_dominates = true;
  for (const TraceSummary& s : summaries) {
    canceled_dominates = canceled_dominates && s.canceled > s.expired / 2;
  }
  std::printf("  cancellations prominent (Linux): %s\n", canceled_dominates ? "yes" : "NO");
  return 0;
}

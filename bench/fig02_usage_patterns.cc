// E4 — Figure 2: common Linux timer usage patterns per workload.

#include "bench/bench_common.h"
#include "src/analysis/classify.h"
#include "src/analysis/render.h"
#include "src/workloads/linux_workloads.h"

int main() {
  using namespace tempo;
  PrintHeader("Figure 2", "Linux usage-pattern mix (% of regularly used timers)");
  PrintPaperNote(
      "Idle dominated by periodic background tasks; Webserver uses watchdogs/"
      "timeouts for connections; Skype/Firefox have many unclassified (very "
      "short soft-real-time) timers");

  const WorkloadOptions options = BenchOptions();
  std::vector<std::pair<std::string, std::map<UsagePattern, double>>> workloads;
  for (TraceRun& run : RunAllLinuxWorkloads(options)) {
    ClassifyPass pass;
    pass.Accumulate(run.records);
    workloads.emplace_back(run.label, PatternHistogram(pass.Result()));
  }
  std::printf("%s", RenderPatternHistogram(workloads).c_str());
  std::printf(
      "\n(countdown = the X/icewm/firefox select idiom; the paper counts\n"
      " these under 'other' before filtering them out in Section 4.2)\n");
  return 0;
}

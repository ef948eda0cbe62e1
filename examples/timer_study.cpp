// The full study, end to end: traces all eight workloads (four per OS),
// runs every analysis of Section 4, and prints a compact report — the
// closest thing to re-running the paper in one command.
//
// Pass --quick for 3-minute traces (default: the paper's 30 minutes).

#include <cstdio>
#include <cstring>

#include "src/analysis/classify.h"
#include "src/analysis/histogram.h"
#include "src/analysis/origins.h"
#include "src/analysis/render.h"
#include "src/analysis/scatter.h"
#include "src/analysis/summary.h"
#include "src/workloads/linux_workloads.h"
#include "src/workloads/vista_workloads.h"

namespace {

using namespace tempo;

void AnalyseOs(const char* os_name, std::vector<TraceRun> runs, bool jiffies) {
  std::printf("\n######################## %s ########################\n\n", os_name);

  std::vector<TraceSummary> summaries;
  std::vector<std::pair<std::string, std::map<UsagePattern, double>>> patterns;
  for (TraceRun& run : runs) {
    SummaryPass summary(run.label);
    ClassifyPass classify;
    summary.Accumulate(run.records);
    classify.Accumulate(run.records);
    summaries.push_back(summary.Result());
    patterns.emplace_back(run.label, PatternHistogram(classify.Result()));
  }
  std::printf("trace summary:\n%s\n", RenderSummaryTable(summaries).c_str());
  std::printf("usage patterns (%% of regularly used timers):\n%s\n",
              RenderPatternHistogram(patterns).c_str());

  for (TraceRun& run : runs) {
    HistogramOptions histogram_options;
    histogram_options.jiffy_quantise_kernel = jiffies;
    auto x = run.pids.find("Xorg");
    if (x != run.pids.end()) {
      histogram_options.exclude_pids.insert(x->second);
    }
    auto wm = run.pids.find("icewm");
    if (wm != run.pids.end()) {
      histogram_options.exclude_pids.insert(wm->second);
    }
    HistogramPass histogram(histogram_options);
    histogram.Accumulate(run.records);
    const ValueHistogram h = histogram.Result();
    std::printf("common values, %s (select countdowns filtered):\n%s\n", run.label.c_str(),
                RenderValueHistogram(h, jiffies).c_str());
  }

  // One scatter per OS is plenty for the report: the busiest workload.
  ScatterPass scatter;
  scatter.Accumulate(runs[2].records);
  std::printf("expiry/cancel scatter, %s:\n%s\n", runs[2].label.c_str(),
              RenderScatter(scatter.Result()).c_str());
}

}  // namespace

int main(int argc, char** argv) {
  WorkloadOptions options;
  options.duration = 30 * kMinute;
  options.seed = 2008;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      options.duration = 3 * kMinute;
    }
  }
  std::printf("tracing 8 workloads x %s of simulated time...\n",
              FormatDuration(options.duration).c_str());

  AnalyseOs("Linux 2.6.23 model", RunAllLinuxWorkloads(options), /*jiffies=*/true);
  AnalyseOs("Vista model", RunAllVistaWorkloads(options), /*jiffies=*/false);

  // Table 3 origins on the Linux idle trace.
  TraceRun idle = RunLinuxIdle(options);
  OriginOptions origin_options;
  origin_options.min_percent = 0.2;
  OriginsPass origins(&idle.callsites(), origin_options);
  origins.Accumulate(idle.records);
  std::printf("origins of frequent Linux values (Idle):\n%s\n",
              RenderOrigins(origins.Result()).c_str());
  return 0;
}

// Shared driver for the Figure 8-11 benches: one workload, Linux and Vista
// panes, expiry/cancellation percentage vs timeout value.

#ifndef TEMPO_BENCH_SCATTER_BENCH_H_
#define TEMPO_BENCH_SCATTER_BENCH_H_

#include <functional>

#include "bench/bench_common.h"
#include "src/analysis/render.h"
#include "src/analysis/scatter.h"

namespace tempo {

inline int RunScatterBench(const std::string& figure, const std::string& workload,
                           const std::string& paper_note,
                           const std::function<TraceRun(const WorkloadOptions&)>& linux_run,
                           const std::function<TraceRun(const WorkloadOptions&)>& vista_run) {
  PrintHeader(figure, "expiry/cancellation time as % of set timeout — " + workload);
  PrintPaperNote(paper_note);

  const WorkloadOptions options = BenchOptions();
  struct Pane {
    const char* name;
    TraceRun run;
  };
  Pane panes[2] = {{"Linux", linux_run(options)}, {"Vista", vista_run(options)}};
  for (Pane& pane : panes) {
    ScatterOptions scatter_options;
    // The figures filter the X/icewm select-loop timers from Linux.
    auto x = pane.run.pids.find("Xorg");
    auto wm = pane.run.pids.find("icewm");
    if (x != pane.run.pids.end()) {
      scatter_options.exclude_pids.insert(x->second);
    }
    if (wm != pane.run.pids.end()) {
      scatter_options.exclude_pids.insert(wm->second);
    }
    ScatterPass pass(scatter_options);
    pass.Accumulate(pane.run.records);
    const auto points = pass.Result();
    std::printf("--- %s (%s) ---\n%s\n", pane.name, workload.c_str(),
                RenderScatter(points).c_str());
    std::printf("columns:\n%s\n", ScatterColumns(points).c_str());
  }
  return 0;
}

}  // namespace tempo

#endif  // TEMPO_BENCH_SCATTER_BENCH_H_

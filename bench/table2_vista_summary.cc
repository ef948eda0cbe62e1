// E3 — Table 2: Vista trace summary across the four workloads.

#include "bench/bench_common.h"
#include "src/analysis/render.h"
#include "src/analysis/summary.h"
#include "src/workloads/vista_workloads.h"

int main() {
  using namespace tempo;
  PrintHeader("Table 2", "Vista trace summary (Idle / Skype / Firefox / Webserver)");
  PrintPaperNote(
      "timers 144/219/228/135; accesses 270691/2169896/5202502/275786; "
      "expired >> canceled on Vista; Firefox the heaviest workload");

  const WorkloadOptions options = BenchOptions();
  std::vector<TraceSummary> summaries;
  for (TraceRun& run : RunAllVistaWorkloads(options)) {
    SummaryPass pass(run.label);
    pass.Accumulate(run.records);
    summaries.push_back(pass.Result());
  }
  std::printf("%s", RenderSummaryTable(summaries).c_str());

  std::printf("\nshape checks:\n");
  bool expiry_dominates = true;
  for (const TraceSummary& s : summaries) {
    expiry_dominates = expiry_dominates && s.expired > s.canceled;
  }
  std::printf("  expiries dominate cancellations: %s\n", expiry_dominates ? "yes" : "NO");
  std::printf("  Firefox heaviest:                %s\n",
              summaries[2].accesses > summaries[0].accesses &&
                      summaries[2].accesses > summaries[1].accesses &&
                      summaries[2].accesses > summaries[3].accesses
                  ? "yes"
                  : "NO");
  std::printf("  Webserver resembles Idle:        %s (%llu vs %llu accesses)\n",
              summaries[3].accesses < 2 * summaries[0].accesses ? "yes" : "NO",
              static_cast<unsigned long long>(summaries[3].accesses),
              static_cast<unsigned long long>(summaries[0].accesses));
  return 0;
}

// E14 — Table 3: origins and classification of frequent Linux timeout
// values (Idle + Webserver, as in the paper's discussion).

#include "bench/bench_common.h"
#include "src/analysis/origins.h"
#include "src/analysis/render.h"
#include "src/workloads/linux_workloads.h"

int main() {
  using namespace tempo;
  PrintHeader("Table 3", "origins and classification of frequent Linux timeout values");
  PrintPaperNote(
      "0.004 block I/O timeout; 0.04 sockets; 0.204 TCP RTO timeout; 0.248 "
      "USB poll periodic; 0.5 clocksource watchdog; 1 workqueue periodic + "
      "apache event loop timeout; 2 workqueue/ARP/e1000 periodic; 3 sockets; "
      "4 ARP; 5 writeback/init periodic + ARP timeout; 8 ARP flush; 15 "
      "apache poll; 30 IDE timeout; 7200 TCP keepalive");

  const WorkloadOptions options = BenchOptions();
  for (const char* which : {"Idle", "Webserver"}) {
    TraceRun run = std::string(which) == "Idle" ? RunLinuxIdle(options)
                                                : RunLinuxWebserver(options);
    OriginOptions origin_options;
    origin_options.min_percent = 0.2;
    OriginsPass pass(&run.callsites(), origin_options);
    pass.Accumulate(run.records);
    std::printf("--- %s ---\n%s\n", which, RenderOrigins(pass.Result()).c_str());
  }
  return 0;
}

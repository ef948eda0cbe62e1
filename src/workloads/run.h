// Workload execution harness.
//
// A TraceRun owns a complete simulated machine (simulator, OS model, trace
// recorder, protocol stacks, application processes) for the duration of one
// traced workload, and exposes what the analysis pipeline needs: the
// records, the call-site registry, and the process table.

#ifndef TEMPO_SRC_WORKLOADS_RUN_H_
#define TEMPO_SRC_WORKLOADS_RUN_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/oslinux/kernel.h"
#include "src/osvista/kernel.h"
#include "src/sim/simulator.h"
#include "src/trace/buffer.h"

namespace tempo {

// The product of running one workload.
struct TraceRun {
  std::string label;
  std::unique_ptr<Simulator> sim;

  // Exactly one kernel is set, matching the traced OS.
  std::unique_ptr<LinuxKernel> linux_kernel;
  std::unique_ptr<VistaKernel> vista_kernel;

  // The trace itself (moved out of the recorder after the run).
  std::vector<TraceRecord> records;

  // Anything else that must stay alive as long as the records reference it
  // (syscall layers, stacks, application objects).
  std::vector<std::shared_ptr<void>> keepalive;

  // Process name -> pid, for analysis filters and Figure 1 grouping.
  std::map<std::string, Pid> pids;

  CallsiteRegistry& callsites() {
    return linux_kernel ? linux_kernel->callsites() : vista_kernel->callsites();
  }

  // Convenience for keepalive registration.
  template <typename T>
  T* Keep(std::unique_ptr<T> obj) {
    std::shared_ptr<T> shared(std::move(obj));
    keepalive.push_back(shared);
    return shared.get();
  }
};

// Live observation hookup. Workload functions run their simulation to
// completion internally, so a caller who wants to watch the trace *while*
// it runs (tempotop, the live-analysis tests) supplies this: the workload
// registers a "live/<label>" channel in `channels`, tees every recorded
// trace record into it, and schedules `poll` every `period` of simulated
// time (after flushing the tap, so a RelayDrainer over `channels` sees
// everything logged so far). The caller's poll typically runs
// RelayDrainer::Poll into a LiveAnalyzer and refreshes a display.
struct LiveTapOptions {
  RelayChannelSet* channels = nullptr;
  std::function<void()> poll;
  SimDuration period = 100 * kMillisecond;
  // Filled by the workload during setup, before the first poll fires: the
  // running simulation's process table and the kernel's callsite registry.
  // A poll callback uses them to label pids / resolve origins while the
  // run is still executing (the TraceRun itself only exists afterwards).
  // Both stay valid for the lifetime of the returned TraceRun.
  const ProcessTable* processes = nullptr;
  const CallsiteRegistry* callsites = nullptr;
};

// Options shared by all workloads.
struct WorkloadOptions {
  // Trace length. The paper's traces are exactly 30 minutes; tests use
  // shorter runs.
  SimDuration duration = 30 * kMinute;
  uint64_t seed = 1;
  // Kernel feature knobs for the Linux ablations (E19).
  bool dynticks = false;
  bool round_jiffies = false;
  bool deferrable = false;
  // Vista tick coalescing ablation.
  bool coalesce_ticks = false;
  // Scales application activity (1.0 = calibrated to the paper's rates).
  double intensity = 1.0;
  // Live observation hookup; nullptr (the default) records normally with
  // no tap. Must outlive the workload call (the workload writes the
  // processes/callsites back-pointers during setup).
  LiveTapOptions* live = nullptr;
};

// Hooks `recorder` up to options.live, if set: registers the
// "live/<run label>" channel as the recorder's live tap and schedules the
// flush-and-poll every `period`. Call it before the kernel logs anything.
void AttachLiveTap(const WorkloadOptions& options, TraceRun* run, TraceRecorder* recorder);

// A workload as the tools name it on the command line ("linux-idle", ...).
struct WorkloadEntry {
  const char* name;
  TraceRun (*run)(const WorkloadOptions& options);
};

// The workload called `name` ("linux-idle", ...), or nullptr. The nine
// traced workloads sit in one name-to-function table, which tracerec,
// tempostat and tempotop all select from.
const WorkloadEntry* FindWorkload(std::string_view name);

// The usage lines that list the workloads, one brace group per OS
// ("  workloads: linux-{idle,...},\n             vista-{...}\n"), with
// `first` before the list and `last` after it.
std::string WorkloadUsage(std::string_view first, std::string_view last);

}  // namespace tempo

#endif  // TEMPO_SRC_WORKLOADS_RUN_H_

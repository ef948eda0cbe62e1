// tempostat — runs a named workload and dumps tempo's own metrics
// snapshot: timer-queue op counts and latencies, dispatcher batching
// efficiency, trace-sink drop rates, sim event-loop throughput, TCP
// timeout fates.
//
//   workload: micromix (synthetic: all four timer queues, the temporal
//             dispatcher, and a short traced webserver run) or any of
//             tracerec's workloads: linux-{idle,skype,firefox,webserver},
//             vista-{idle,skype,firefox,webserver,desktop}.
//
// By default the obs probe clock is a deterministic virtual counter, so
// repeated runs with the same arguments produce byte-identical snapshots
// (op counts and relative latencies are simulation facts, not wall-clock
// noise). Pass --wall to measure real TSC cycles instead.
//
// The recorded trace is folded through the analysis pipeline's SummaryPass
// before the snapshot, so text output leads with a trace summary and the
// snapshot itself includes the trace_pipeline_* counters. --jobs defaults
// to 1 to keep snapshots byte-stable across machines; higher values
// exercise the parallel pipeline (workers never touch the probe clock, so
// the virtual-clock determinism holds for any job count).

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "src/analysis/pipeline.h"
#include "src/analysis/render.h"
#include "src/analysis/summary.h"
#include "src/dispatcher/dispatcher.h"
#include "src/obs/probe.h"
#include "src/obs/snapshot.h"
#include "src/sim/simulator.h"
#include "src/timer/queue.h"
#include "src/timer/timer_service.h"
#include "src/workloads/linux_workloads.h"
#include "src/workloads/run.h"
#include "tools/common.h"

namespace tempo {
namespace {

// Exercises one timer-queue implementation with a set/cancel/expire mix
// echoing the paper's headline shape: most timers are canceled, not fired.
void DriveQueue(const std::string& name, uint64_t seed) {
  TimerQueueOptions queue_options;
  queue_options.name = name;
  std::unique_ptr<TimerQueue> queue = MakeTimerQueue(queue_options);
  uint64_t state = seed * 0x9e3779b97f4a7c15ULL + 1;
  auto next = [&state] {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  std::vector<TimerHandle> handles;
  handles.reserve(20000);
  for (int i = 0; i < 20000; ++i) {
    const SimTime expiry = static_cast<SimTime>(next() % 2000) * kMillisecond;
    handles.push_back(queue->Schedule(expiry, [](TimerHandle) {}));
  }
  // Cancel ~70% before they can fire (Section 4: "timers are overwhelmingly
  // used as insurance against events that rarely happen").
  for (size_t i = 0; i < handles.size(); ++i) {
    if (i % 10 < 7) {
      queue->Cancel(handles[i]);
    }
  }
  for (SimTime t = 100 * kMillisecond; t <= 2 * kSecond; t += 100 * kMillisecond) {
    queue->Advance(t);
  }
}

// Exercises the sharded TimerService front-end: shard routing, the
// published-deadline cache and the due-shard filter in AdvanceAll.
// Single-threaded by design — the virtual probe clock is a plain global —
// so shards are addressed explicitly with ScheduleOn.
void DriveTimerService(const std::string& queue, uint64_t seed) {
  TimerService::Options options;
  options.queue = queue;
  options.shards = 4;
  options.stats_label = "micromix";
  TimerService service(options);
  uint64_t state = seed * 0x9e3779b97f4a7c15ULL + 1;
  auto next = [&state] {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  std::vector<TimerHandle> handles;
  handles.reserve(8000);
  for (int i = 0; i < 8000; ++i) {
    const SimTime expiry = static_cast<SimTime>(next() % 2000) * kMillisecond;
    handles.push_back(service.ScheduleOn(next() % 4, expiry, [](TimerHandle) {}));
  }
  for (size_t i = 0; i < handles.size(); ++i) {
    if (i % 10 < 7) {
      service.Cancel(handles[i]);
    }
  }
  for (SimTime t = 100 * kMillisecond; t <= 2 * kSecond; t += 100 * kMillisecond) {
    if (service.GlobalNextExpiry() <= t) {
      service.AdvanceAll(t);
    }
  }
  service.PublishStats();
}

// A dispatcher scenario with enough concurrent cadences that batching and
// piggybacking actually happen.
void DriveDispatcher(uint64_t seed) {
  Simulator sim(seed);
  TemporalDispatcher dispatcher(&sim);
  DispatchTask* media = dispatcher.CreateTask("media", 4);
  media->RunEvery(10 * kMillisecond, 2 * kMillisecond, [] {});
  DispatchTask* poll = dispatcher.CreateTask("poll", 1);
  poll->RunEvery(30 * kMillisecond, 20 * kMillisecond, [] {});
  DispatchTask* housekeeping = dispatcher.CreateTask("housekeeping", 1);
  housekeeping->RunEvery(500 * kMillisecond, 400 * kMillisecond, [] {});
  DispatchTask* guard_owner = dispatcher.CreateTask("guarded-io", 2);
  const RequirementId guard =
      guard_owner->Guard(5 * kSecond, [] { std::fprintf(stderr, "watchdog fired\n"); });
  DispatchTask* kicker = dispatcher.CreateTask("kicker", 1);
  kicker->RunEvery(1 * kSecond, 100 * kMillisecond,
                   [guard_owner, guard] { guard_owner->Kick(guard); });
  sim.RunFor(30 * kSecond);
}

}  // namespace
}  // namespace tempo

int main(int argc, char** argv) {
  using namespace tempo;
  static const tools::FlagSpec kFlags[] = {
      {"minutes", 1, "M", "simulated duration (default 3)"},
      {"seed", 1, "S", "workload random seed (default 2008)"},
      {"format", 1, "text|json|prom|all", "snapshot format (default text)"},
      {"jobs", 1, "N", "trace-pipeline workers (0 = one per core; default 1)"},
      {"wall", 0, "", "measure real TSC cycles instead of the virtual clock"},
      tools::QueueFlag(),
  };
  const tools::ParsedArgs args = tools::ParseArgs(argc, argv, kFlags);
  if (!args.ok() || args.positionals().size() != 1) {
    if (!args.ok()) {
      std::fprintf(stderr, "error: %s\n", args.error().c_str());
    }
    tools::PrintUsage(stderr, argv[0], "<workload>", kFlags,
                      WorkloadUsage("micromix, ", "").c_str());
    return 2;
  }
  const std::string& which = args.positionals()[0];
  const std::string format = args.Value("format", 0, "text");
  const double minutes = args.TimeValue("minutes", 3.0, kMinute, 0, 0.0);
  const uint64_t seed = args.UintValue("seed", 2008);
  const size_t jobs = static_cast<size_t>(args.UintValue("jobs", 1));
  if (format != "text" && format != "json" && format != "prom" && format != "all") {
    std::fprintf(stderr, "error: unknown format %s\n", format.c_str());
    tools::PrintUsage(stderr, argv[0], "<workload>", kFlags,
                      WorkloadUsage("micromix, ", "").c_str());
    return 2;
  }

  const std::string queue = tools::ResolveQueueName(args, "hierarchical_wheel");
  if (queue.empty()) {
    return 2;
  }

  if (!args.Has("wall")) {
    obs::SetProbeClock(&tools::VirtualCycleClock);
  }

  WorkloadOptions options;
  options.duration = FromSeconds(minutes * 60.0);
  options.seed = seed;

  // Keeps the workload's simulator/kernel alive until the snapshot is taken.
  TraceRun run;
  if (which == "micromix") {
    // --queue narrows the sweep to one backend; the default drives all of
    // them (the cross-implementation comparison the snapshot is for).
    if (args.Has("queue")) {
      DriveQueue(queue, seed);
    } else {
      for (const std::string& name : TimerQueueNames()) {
        DriveQueue(name, seed);
      }
    }
    DriveTimerService(queue, seed);
    DriveDispatcher(seed);
    // A short traced webserver run covers the kernel wheel, the trace
    // sinks and the TCP stack in one go.
    options.duration = FromSeconds(std::min(minutes, 1.0) * 60.0);
    run = RunLinuxWebserver(options);
  } else if (const WorkloadEntry* workload = FindWorkload(which)) {
    run = workload->run(options);
  } else {
    std::fprintf(stderr, "error: unknown workload %s\n", which.c_str());
    return 2;
  }

  // Fold the recorded trace through the streaming pipeline: the summary
  // section below comes from SummaryPass, and the run contributes
  // trace_pipeline_* counters to the snapshot.
  std::vector<std::unique_ptr<AnalysisPass>> passes;
  passes.push_back(std::make_unique<SummaryPass>(run.label.empty() ? which : run.label));
  PipelineOptions pipeline_options;
  pipeline_options.jobs = jobs;
  pipeline_options.stats_label = which;
  PipelineRunner runner(pipeline_options);
  runner.Run(std::span<const TraceRecord>(run.records.data(), run.records.size()), passes);
  if (format == "text" || format == "all") {
    std::printf("trace summary:\n");
    TextRenderSink sink(stdout);
    passes.front()->Render(sink);
  }

  const obs::MetricsSnapshot snapshot = obs::Registry::Global().TakeSnapshot();
  if (format == "text" || format == "all") {
    std::fputs(obs::RenderText(snapshot).c_str(), stdout);
  }
  if (format == "json" || format == "all") {
    std::fputs(obs::RenderJson(snapshot).c_str(), stdout);
    std::fputc('\n', stdout);
  }
  if (format == "prom" || format == "all") {
    std::fputs(obs::RenderPrometheus(snapshot).c_str(), stdout);
  }
  return 0;
}

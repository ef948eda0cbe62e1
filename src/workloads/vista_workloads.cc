#include "src/workloads/vista_workloads.h"

#include <memory>
#include <utility>

#include "src/osvista/userapi.h"
#include "src/workloads/vista_apps.h"

namespace tempo {

namespace {

struct VistaBase {
  TraceRun run;
  TraceRecorder* recorder = nullptr;
  VistaKernel* kernel = nullptr;
  VistaUserApi* api = nullptr;
};

VistaBase MakeVistaBase(const std::string& label, const WorkloadOptions& options) {
  VistaBase base;
  base.run.label = label;
  base.run.sim = std::make_unique<Simulator>(options.seed);

  // The ETW session: unbounded, so it never drops.
  auto recorder = std::make_unique<TraceRecorder>("etw", TraceRecorder::kUnbounded);
  recorder->AttachCpu(&base.run.sim->cpu());
  AttachLiveTap(options, &base.run, recorder.get());
  base.recorder = base.run.Keep(std::move(recorder));

  VistaKernel::Options kernel_options;
  kernel_options.coalesce_ticks = options.coalesce_ticks;
  base.run.vista_kernel =
      std::make_unique<VistaKernel>(base.run.sim.get(), base.recorder, kernel_options);
  base.kernel = base.run.vista_kernel.get();
  base.api = base.run.Keep(std::make_unique<VistaUserApi>(base.kernel));
  base.kernel->Boot();
  if (options.live != nullptr) {
    options.live->processes = &base.run.sim->processes();
    options.live->callsites = &base.kernel->callsites();
  }
  return base;
}

Pid AddProcess(VistaBase& base, const std::string& name) {
  const Pid pid = base.run.sim->processes().AddProcess(name);
  base.run.pids[name] = pid;
  return pid;
}

Tid AddThread(VistaBase& base, Pid pid) { return base.run.sim->processes().AddThread(pid); }

void AddWaitLoop(VistaBase& base, Pid pid, const std::string& callsite,
                 SimDuration timeout, double satisfied, SimDuration gap = 0) {
  WaitLoopApp::Options options;
  options.timeout = timeout;
  options.satisfied_probability = satisfied;
  options.gap_mean = gap;
  base.run.Keep(std::make_unique<WaitLoopApp>(base.kernel, pid, AddThread(base, pid),
                                              callsite, options))->Start();
}

// The kernel's own periodic DPC housekeeping: the timer traffic that
// dominates Vista's idle trace (Table 2: kernel accesses ~4x user).
void AddKernelHousekeeping(VistaBase& base, double intensity) {
  auto add = [&](const char* callsite, SimDuration period) {
    base.run.Keep(std::make_unique<KernelTickerApp>(base.kernel, callsite, period))->Start();
  };
  add("nt/balance_set_manager", FromMilliseconds(15.625 / intensity));
  add("nt/power_manager", 100 * kMillisecond);
  add("nt/memory_manager", 1 * kSecond);
  add("nt/cache_lazy_writer", FromMilliseconds(515.6));
  add("nt/dpc_watchdog", 500 * kMillisecond);
  add("ndis/interface_poll", 2 * kSecond);
}

// The 26-process standard background population: service wait loops with
// the round and tick-derived values of Figure 7.
void AddBackgroundServices(VistaBase& base) {
  const Pid csrss = AddProcess(base, "csrss.exe");
  AddWaitLoop(base, csrss, "csrss/wait", 1 * kSecond, 0.08);
  AddWaitLoop(base, csrss, "csrss/gdi_wait", 250 * kMillisecond, 0.03);

  const Pid services = AddProcess(base, "services.exe");
  AddWaitLoop(base, services, "services/scm_wait", 2 * kSecond, 0.05);

  const Pid lsass = AddProcess(base, "lsass.exe");
  AddWaitLoop(base, lsass, "lsass/wait", 5 * kSecond, 0.05);

  for (int i = 0; i < 5; ++i) {
    const Pid svchost = AddProcess(base, "svchost.exe#" + std::to_string(i));
    static constexpr SimDuration kPeriods[] = {
        1 * kSecond, 500 * kMillisecond, FromMilliseconds(515.6), 3 * kSecond,
        FromMilliseconds(115.6)};
    AddWaitLoop(base, svchost, "svchost/wait", kPeriods[i], 0.06);
  }

  const Pid explorer = AddProcess(base, "explorer.exe");
  MessageQueue* queue = base.api->CreateMessageQueue(explorer, AddThread(base, explorer),
                                                     "explorer");
  queue->SetTimer(1 * kSecond, nullptr);  // taskbar clock

  const Pid tray = AddProcess(base, "audiotray.exe");
  MessageQueue* tray_queue =
      base.api->CreateMessageQueue(tray, AddThread(base, tray), "audiotray");
  tray_queue->SetTimer(250 * kMillisecond, nullptr);
  tray_queue->SetTimer(500 * kMillisecond, nullptr);

  // Registry lazy-close deferrals (the "deferred" pattern).
  const Pid config = AddProcess(base, "system-config");
  DeferredCloserApp::Options deferred;
  base.run.Keep(std::make_unique<DeferredCloserApp>(
      base.kernel, config, AddThread(base, config), "nt/registry_lazy_close",
      deferred))->Start();

  // A threadpool with slow maintenance timers.
  const Pid taskhost = AddProcess(base, "taskhost.exe");
  ThreadpoolPool* pool =
      base.api->CreatePool(taskhost, AddThread(base, taskhost), "taskhost");
  pool->CreateTimer(nullptr)->Set(30 * kSecond, 30 * kSecond);
  pool->CreateTimer(nullptr)->Set(60 * kSecond, 60 * kSecond);

  // A handful of quieter services to reach the paper's 26-process count.
  for (int i = 0; i < 12; ++i) {
    const Pid pid = AddProcess(base, "bgservice#" + std::to_string(i));
    AddWaitLoop(base, pid, "bgservice/wait", (5 + 5 * (i % 4)) * kSecond, 0.04);
  }
}

}  // namespace

TraceRun RunVistaIdle(const WorkloadOptions& options) {
  VistaBase base = MakeVistaBase("Idle", options);
  AddKernelHousekeeping(base, options.intensity);
  AddBackgroundServices(base);
  base.run.sim->RunUntil(options.duration);
  base.run.records = base.recorder->TakeRecords();
  return std::move(base.run);
}

TraceRun RunVistaSkype(const WorkloadOptions& options) {
  VistaBase base = MakeVistaBase("Skype", options);
  AddKernelHousekeeping(base, options.intensity);
  AddBackgroundServices(base);

  const Pid skype = AddProcess(base, "skype.exe");
  // Audio pump threads: short waits that nearly always time out, at the
  // rates that make the Vista Skype trace ~10x busier than Idle.
  AddWaitLoop(base, skype, "skype/audio_wait", 10 * kMillisecond, 0.10);
  AddWaitLoop(base, skype, "skype/render_wait", FromMilliseconds(2.5), 0.05);
  AddWaitLoop(base, skype, "skype/capture_wait", FromMilliseconds(5), 0.08);

  // Network select loops through afd (fresh KTIMER per call).
  AfdSelectLoopApp::Options select;
  select.values = {{50 * kMillisecond, 0.4},
                   {100 * kMillisecond, 0.3},
                   {20 * kMillisecond, 0.2},
                   {500 * kMillisecond, 0.1}};
  select.ready_probability = 0.5;
  base.run.Keep(std::make_unique<AfdSelectLoopApp>(base.kernel, base.api, skype,
                                                   AddThread(base, skype), "skype/select",
                                                   select))->Start();

  // Kernel-side audio engine DPC timer.
  base.run.Keep(std::make_unique<KernelTickerApp>(base.kernel, "portcls/audio_dpc",
                                                  3 * kMillisecond))->Start();

  base.run.sim->RunUntil(options.duration);
  base.run.records = base.recorder->TakeRecords();
  return std::move(base.run);
}

TraceRun RunVistaFirefox(const WorkloadOptions& options) {
  VistaBase base = MakeVistaBase("Firefox", options);
  AddKernelHousekeeping(base, options.intensity);
  AddBackgroundServices(base);

  const Pid firefox = AddProcess(base, "firefox.exe");

  // The Flash plugin over a best-effort substrate: thousands of sets per
  // second, most below 10 ms, some sub-millisecond (delivered at
  // essentially random times given the 15.6 ms tick).
  AfdSelectLoopApp::Options flash;
  flash.values = {{kMillisecond, 0.30},        {3 * kMillisecond, 0.20},
                  {500 * kMicrosecond, 0.12},  {10 * kMillisecond, 0.23},
                  {FromMilliseconds(15.6), 0.10}, {100 * kMillisecond, 0.05}};
  flash.ready_probability = 0.02;
  for (int i = 0; i < 9; ++i) {
    base.run.Keep(std::make_unique<AfdSelectLoopApp>(
        base.kernel, base.api, firefox, AddThread(base, firefox), "firefox/flash_select",
        flash))->Start();
  }

  // GUI timers for animations.
  MessageQueue* queue =
      base.api->CreateMessageQueue(firefox, AddThread(base, firefox), "firefox");
  queue->SetTimer(10 * kMillisecond, nullptr);
  queue->SetTimer(FromMilliseconds(15.6), nullptr);
  AddWaitLoop(base, firefox, "firefox/compositor_wait", 8 * kMillisecond, 0.15);

  base.run.sim->RunUntil(options.duration);
  base.run.records = base.recorder->TakeRecords();
  return std::move(base.run);
}

TraceRun RunVistaWebserver(const WorkloadOptions& options) {
  VistaBase base = MakeVistaBase("Webserver", options);
  AddKernelHousekeeping(base, options.intensity);
  AddBackgroundServices(base);

  // Apache on Vista: its request handling blocks in winsock select / waits;
  // Vista's TCP timers (retransmit, keepalive) are in private per-CPU
  // timing wheels and never reach the instrumented KTIMER interface — so,
  // as the paper observes, the trace resembles Idle and the 7200 s Linux
  // keepalive is conspicuously absent.
  const Pid apache = AddProcess(base, "httpd.exe");
  const double rps = 16.7 * options.intensity;  // 30000 requests / 30 min
  AfdSelectLoopApp::Options accept_loop;
  accept_loop.values = {{1 * kSecond, 1.0}};
  accept_loop.ready_probability = 0.9;  // connections keep arriving
  base.run.Keep(std::make_unique<AfdSelectLoopApp>(base.kernel, base.api, apache,
                                                   AddThread(base, apache), "httpd/accept",
                                                   accept_loop))->Start();
  // Worker waits: one request's worth of socket readiness per arrival.
  AfdSelectLoopApp::Options worker;
  worker.values = {{5 * kSecond, 0.6}, {15 * kSecond, 0.4}};
  worker.ready_probability = 0.97;
  worker.gap_mean = static_cast<SimDuration>(10.0 / rps * kSecond);
  for (int i = 0; i < 10; ++i) {
    base.run.Keep(std::make_unique<AfdSelectLoopApp>(
        base.kernel, base.api, apache, AddThread(base, apache), "httpd/worker_select",
        worker))->Start();
  }

  base.run.sim->RunUntil(options.duration);
  base.run.records = base.recorder->TakeRecords();
  return std::move(base.run);
}

TraceRun RunVistaDesktop(const WorkloadOptions& options) {
  VistaBase base = MakeVistaBase("Desktop", options);
  AddKernelHousekeeping(base, options.intensity);
  AddBackgroundServices(base);

  // Push the kernel line to the ~1000 sets/s the paper shows in Figure 1.
  // KTIMERs cannot fire faster than the clock interrupt, so the rate comes
  // from many tick-period timers (I/O completion, DPC queues, drivers).
  for (int i = 0; i < 14; ++i) {
    base.run.Keep(std::make_unique<KernelTickerApp>(
        base.kernel, "nt/io_timer_queue#" + std::to_string(i), kVistaClockTick))->Start();
  }

  // Outlook with the upcall-guard idiom: ~70 sets/s idle, bursting to
  // thousands per second.
  const Pid outlook = AddProcess(base, "outlook.exe");
  UpcallGuardApp::Options guard;
  base.run.Keep(std::make_unique<UpcallGuardApp>(base.kernel, outlook,
                                                 AddThread(base, outlook), "outlook/ui_guard",
                                                 guard))->Start();

  // A web browser setting tens of timeouts per second.
  const Pid browser = AddProcess(base, "iexplore.exe");
  AfdSelectLoopApp::Options browse;
  browse.values = {{100 * kMillisecond, 0.4},
                   {250 * kMillisecond, 0.3},
                   {1 * kSecond, 0.2},
                   {30 * kMillisecond, 0.1}};
  browse.ready_probability = 0.35;
  browse.gap_mean = 15 * kMillisecond;
  base.run.Keep(std::make_unique<AfdSelectLoopApp>(base.kernel, base.api, browser,
                                                   AddThread(base, browser),
                                                   "iexplore/select", browse))->Start();
  MessageQueue* queue =
      base.api->CreateMessageQueue(browser, AddThread(base, browser), "iexplore");
  queue->SetTimer(100 * kMillisecond, nullptr);

  base.run.sim->RunUntil(options.duration);
  base.run.records = base.recorder->TakeRecords();
  return std::move(base.run);
}

std::vector<TraceRun> RunAllVistaWorkloads(const WorkloadOptions& options) {
  std::vector<TraceRun> runs;
  runs.push_back(RunVistaIdle(options));
  runs.push_back(RunVistaSkype(options));
  runs.push_back(RunVistaFirefox(options));
  runs.push_back(RunVistaWebserver(options));
  return runs;
}

}  // namespace tempo

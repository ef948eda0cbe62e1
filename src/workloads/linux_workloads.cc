#include "src/workloads/linux_workloads.h"

#include <memory>
#include <utility>

#include "src/net/http.h"
#include "src/net/tcp.h"
#include "src/oslinux/subsystems.h"
#include "src/oslinux/syscalls.h"
#include "src/workloads/select_apps.h"

namespace tempo {

namespace {

// Shared base: simulator, kernel, trace recorder, standard daemons.
struct LinuxBase {
  TraceRun run;
  TraceRecorder* recorder = nullptr;
  LinuxKernel* kernel = nullptr;
  LinuxSyscalls* syscalls = nullptr;
  KernelSubsystems* subsystems = nullptr;
};

LinuxBase MakeLinuxBase(const std::string& label, const WorkloadOptions& options,
                        KernelSubsystemsOptions subsystem_options) {
  LinuxBase base;
  base.run.label = label;
  base.run.sim = std::make_unique<Simulator>(options.seed);

  auto recorder = std::make_unique<TraceRecorder>();
  recorder->AttachCpu(&base.run.sim->cpu());
  AttachLiveTap(options, &base.run, recorder.get());
  base.recorder = base.run.Keep(std::move(recorder));

  LinuxKernel::Options kernel_options;
  kernel_options.dynticks = options.dynticks;
  base.run.linux_kernel =
      std::make_unique<LinuxKernel>(base.run.sim.get(), base.recorder, kernel_options);
  base.kernel = base.run.linux_kernel.get();

  subsystem_options.use_round_jiffies = options.round_jiffies;
  subsystem_options.deferrable_periodics = options.deferrable;
  base.subsystems = base.run.Keep(
      std::make_unique<KernelSubsystems>(base.kernel, subsystem_options));
  base.syscalls = base.run.Keep(std::make_unique<LinuxSyscalls>(base.kernel));

  base.kernel->Boot();
  base.subsystems->Start();
  if (options.live != nullptr) {
    options.live->processes = &base.run.sim->processes();
    options.live->callsites = &base.kernel->callsites();
  }
  return base;
}

Pid AddProcess(LinuxBase& base, const std::string& name) {
  const Pid pid = base.run.sim->processes().AddProcess(name);
  base.run.pids[name] = pid;
  return pid;
}

Tid AddThread(LinuxBase& base, Pid pid) { return base.run.sim->processes().AddThread(pid); }

// Stock Debian daemons: init polling children (5 s), cron and atd minute
// loops, a slow syslogd mark timer, a 15 s portmapper-style poll.
void AddStandardDaemons(LinuxBase& base) {
  const Pid init = AddProcess(base, "init");
  base.run.Keep(std::make_unique<PeriodicSleeper>(base.kernel, base.syscalls, init,
                                                  AddThread(base, init), "init/poll_children",
                                                  5 * kSecond))->Start();
  const Pid cron = AddProcess(base, "cron");
  base.run.Keep(std::make_unique<PeriodicSleeper>(base.kernel, base.syscalls, cron,
                                                  AddThread(base, cron), "cron/minute_tick",
                                                  60 * kSecond))->Start();
  const Pid atd = AddProcess(base, "atd");
  base.run.Keep(std::make_unique<PeriodicSleeper>(base.kernel, base.syscalls, atd,
                                                  AddThread(base, atd), "atd/queue_scan",
                                                  60 * kSecond))->Start();
  const Pid syslogd = AddProcess(base, "syslogd");
  base.run.Keep(std::make_unique<PeriodicSleeper>(base.kernel, base.syscalls, syslogd,
                                                  AddThread(base, syslogd), "syslogd/mark",
                                                  1200 * kSecond))->Start();
  const Pid portmap = AddProcess(base, "portmap");
  SelectLoopApp::Options pm_options;
  pm_options.full_timeout = 15 * kSecond;
  pm_options.activity_rate = 0.02;  // almost always times out
  base.run.Keep(std::make_unique<SelectLoopApp>(base.kernel, base.syscalls, portmap,
                                                AddThread(base, portmap), "portmap/select",
                                                pm_options))->Start();
}

// X server + window manager with their select countdowns (Figure 4).
void AddXAndWindowManager(LinuxBase& base, double intensity) {
  const Pid xorg = AddProcess(base, "Xorg");
  SelectLoopApp::Options x_options;
  x_options.full_timeout = 600 * kSecond;  // screensaver check
  x_options.activity_rate = 14.0 * intensity;
  base.run.Keep(std::make_unique<SelectLoopApp>(base.kernel, base.syscalls, xorg,
                                                AddThread(base, xorg), "Xorg/select",
                                                x_options))->Start();

  const Pid icewm = AddProcess(base, "icewm");
  SelectLoopApp::Options wm_options;
  wm_options.full_timeout = 120 * kSecond;  // tooltip/clock maintenance
  wm_options.activity_rate = 6.0 * intensity;
  base.run.Keep(std::make_unique<SelectLoopApp>(base.kernel, base.syscalls, icewm,
                                                AddThread(base, icewm), "icewm/select",
                                                wm_options))->Start();
}

// A quiet established TCP connection or two (the department LAN): arms the
// 7200 s keepalive, with sporadic heartbeat traffic exercising the
// retransmission and delayed-ACK timers.
void AddIdleTcp(LinuxBase& base, SimNetwork* net, int connections, SimDuration heartbeat) {
  const NodeId local = net->AddNode("testbox");
  const NodeId remote = net->AddNode("lan-peer");
  LinkParams lan;
  lan.latency = 65 * kMicrosecond;
  net->SetLinkBoth(local, remote, lan);

  auto* server_stack = base.run.Keep(std::make_unique<TcpStack>(
      base.run.sim.get(), net, remote, nullptr, kKernelPid));
  auto* client_stack = base.run.Keep(std::make_unique<TcpStack>(
      base.run.sim.get(), net, local, base.kernel, kKernelPid));
  TcpListener* listener = server_stack->Listen();
  listener->on_accept = [](TcpConnection* conn) {
    conn->on_data = [conn](size_t) {
      if (conn->established()) {
        conn->Send(128, nullptr);  // echo
      }
    };
  };

  Simulator* sim = base.run.sim.get();
  for (int i = 0; i < connections; ++i) {
    client_stack->Connect(listener, [sim, heartbeat](TcpConnection* conn) {
      // Periodic heartbeat over the established connection.
      struct Beat {
        static void Next(Simulator* s, TcpConnection* c, SimDuration period) {
          const SimDuration gap = static_cast<SimDuration>(
              s->rng().Exponential(ToSeconds(period)) * kSecond);
          s->ScheduleAfter(gap, [s, c, period] {
            if (c->established()) {
              c->Send(256, nullptr);
              Next(s, c, period);
            }
          });
        }
      };
      Beat::Next(sim, conn, heartbeat);
    }, nullptr);
  }
}

}  // namespace

TraceRun RunLinuxIdle(const WorkloadOptions& options) {
  KernelSubsystemsOptions subsystems;
  subsystems.lan_event_rate = 0.15;
  subsystems.block_io_rate = 0.05;  // sporadic daemon logging
  LinuxBase base = MakeLinuxBase("Idle", options, subsystems);

  AddStandardDaemons(base);
  AddXAndWindowManager(base, options.intensity);

  auto* net = base.run.Keep(std::make_unique<SimNetwork>(base.run.sim.get()));
  AddIdleTcp(base, net, /*connections=*/2, /*heartbeat=*/12 * kSecond);

  base.run.sim->RunUntil(options.duration);
  base.run.records = base.recorder->TakeRecords();
  return std::move(base.run);
}

TraceRun RunLinuxFirefox(const WorkloadOptions& options) {
  KernelSubsystemsOptions subsystems;
  subsystems.lan_event_rate = 0.3;  // page traffic keeps ARP busier
  subsystems.block_io_rate = 0.2;   // cache writes
  LinuxBase base = MakeLinuxBase("Firefox", options, subsystems);

  AddStandardDaemons(base);
  AddXAndWindowManager(base, options.intensity);

  const Pid firefox = AddProcess(base, "firefox");

  // The Flash plugin's soft-real-time frame pump: 1-3 jiffy polls that
  // nearly always expire (Section 4.1.1's "unclassified very short
  // timers"), at a few hundred operations per second.
  PollLoopApp::Options flash;
  flash.values = {
      {4 * kMillisecond, 0.45},  {8 * kMillisecond, 0.22}, {12 * kMillisecond, 0.16},
      {24 * kMillisecond, 0.05}, {44 * kMillisecond, 0.04}, {48 * kMillisecond, 0.03},
      {96 * kMillisecond, 0.03}, {100 * kMillisecond, 0.02},
  };
  flash.cancel_probability = 0.35;
  flash.gap_mean = 0;
  for (int i = 0; i < 5; ++i) {
    base.run.Keep(std::make_unique<PollLoopApp>(
        base.kernel, base.syscalls, firefox, AddThread(base, firefox),
        "firefox/poll_fd", flash))->Start();
  }

  // The main event loop: a 3-jiffy select countdown (Section 4.2:
  // "Firefox employs the same mechanism, seen as a countdown from 3
  //  jiffies").
  SelectLoopApp::Options loop;
  loop.full_timeout = 12 * kMillisecond;
  loop.activity_rate = 110.0 * options.intensity;
  base.run.Keep(std::make_unique<SelectLoopApp>(base.kernel, base.syscalls, firefox,
                                                AddThread(base, firefox), "firefox/select",
                                                loop))->Start();

  auto* net = base.run.Keep(std::make_unique<SimNetwork>(base.run.sim.get()));
  AddIdleTcp(base, net, /*connections=*/3, /*heartbeat=*/4 * kSecond);

  base.run.sim->RunUntil(options.duration);
  base.run.records = base.recorder->TakeRecords();
  return std::move(base.run);
}

TraceRun RunLinuxSkype(const WorkloadOptions& options) {
  KernelSubsystemsOptions subsystems;
  subsystems.lan_event_rate = 0.4;
  subsystems.block_io_rate = 0.05;
  LinuxBase base = MakeLinuxBase("Skype", options, subsystems);

  AddStandardDaemons(base);
  AddXAndWindowManager(base, options.intensity);

  const Pid skype = AddProcess(base, "skype");

  // The audio pump: dominated by constant 0, 0.4999 and 0.5 second
  // timeouts (Figure 6), plus the 52/100 ms values of Table 3.
  PollLoopApp::Options audio;
  audio.values = {
      {0, 0.34},
      {FromMilliseconds(499.9), 0.18},
      {500 * kMillisecond, 0.17},
      {52 * kMillisecond, 0.12},
      {100 * kMillisecond, 0.10},
      {20 * kMillisecond, 0.05},
      {44 * kMillisecond, 0.04},
  };
  audio.cancel_probability = 0.55;  // the call's traffic wakes it constantly
  audio.gap_mean = FromMilliseconds(3);
  for (int i = 0; i < 3; ++i) {
    base.run.Keep(std::make_unique<PollLoopApp>(base.kernel, base.syscalls, skype,
                                                AddThread(base, skype), "skype/poll",
                                                audio))->Start();
  }

  // "The only slightly more adaptive application": a stream of short,
  // irregular timeouts through poll and select.
  struct IrregularPoll {
    LinuxKernel* kernel;
    SelectChannel* channel;
    void Iterate() {
      const SimDuration timeout = static_cast<SimDuration>(
          kernel->sim().rng().Uniform(0.008, 0.9) * kSecond);
      channel->Select(timeout, [this](SimDuration, bool) { Iterate(); });
      if (kernel->sim().rng().Bernoulli(0.7)) {
        const SimDuration when = static_cast<SimDuration>(
            kernel->sim().rng().Uniform(0.001, ToSeconds(timeout)) * kSecond);
        kernel->sim().ScheduleAfter(when, [this] {
          if (channel->blocked()) {
            channel->Wake();
          }
        });
      }
    }
  };
  auto irregular = std::make_unique<IrregularPoll>();
  irregular->kernel = base.kernel;
  irregular->channel =
      base.syscalls->Channel(skype, AddThread(base, skype), "skype/select_irregular");
  base.run.Keep(std::move(irregular))->Iterate();

  // The call itself: steady bidirectional traffic over TCP.
  auto* net = base.run.Keep(std::make_unique<SimNetwork>(base.run.sim.get()));
  AddIdleTcp(base, net, /*connections=*/2, /*heartbeat=*/1 * kSecond);

  base.run.sim->RunUntil(options.duration);
  base.run.records = base.recorder->TakeRecords();
  return std::move(base.run);
}

TraceRun RunLinuxWebserver(const WorkloadOptions& options) {
  KernelSubsystemsOptions subsystems;
  subsystems.lan_event_rate = 0.5;
  subsystems.packet_scheduler = true;
  subsystems.block_io_rate = 0.0;  // driven by the request path instead
  LinuxBase base = MakeLinuxBase("Webserver", options, subsystems);

  AddStandardDaemons(base);  // X is not running for this workload

  auto* net = base.run.Keep(std::make_unique<SimNetwork>(base.run.sim.get()));
  const NodeId server_node = net->AddNode("testbox");
  const NodeId client_node = net->AddNode("httperf-box");
  LinkParams lan;
  lan.latency = 65 * kMicrosecond;
  net->SetLinkBoth(server_node, client_node, lan);

  const Pid apache = AddProcess(base, "apache2");
  auto* server_stack = base.run.Keep(std::make_unique<TcpStack>(
      base.run.sim.get(), net, server_node, base.kernel, kKernelPid));
  auto* client_stack = base.run.Keep(std::make_unique<TcpStack>(
      base.run.sim.get(), net, client_node, nullptr, kKernelPid));

  HttpServer::Options server_options;
  auto* server = base.run.Keep(std::make_unique<HttpServer>(
      base.kernel, base.syscalls, server_stack, apache, server_options, base.subsystems));
  TcpListener* listener = server->Start();

  HttpLoadGenerator::Options load;
  load.total_requests = static_cast<int>(
      30000.0 * options.intensity * ToSeconds(options.duration) / ToSeconds(30 * kMinute));
  auto* generator = base.run.Keep(
      std::make_unique<HttpLoadGenerator>(client_stack, listener, load));
  generator->Start(nullptr);

  base.run.sim->RunUntil(options.duration);
  base.run.records = base.recorder->TakeRecords();
  return std::move(base.run);
}

std::vector<TraceRun> RunAllLinuxWorkloads(const WorkloadOptions& options) {
  std::vector<TraceRun> runs;
  runs.push_back(RunLinuxIdle(options));
  runs.push_back(RunLinuxSkype(options));
  runs.push_back(RunLinuxFirefox(options));
  runs.push_back(RunLinuxWebserver(options));
  return runs;
}

}  // namespace tempo

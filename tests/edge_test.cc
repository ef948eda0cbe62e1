// Edge-case tests across modules: wheel cascade boundaries, codec fuzzing,
// event-queue stale-id stress, FIFO network ordering, workload app models,
// and HTTP failure paths.

#include <gtest/gtest.h>

#include "src/net/http.h"
#include "src/sim/event_queue.h"
#include "src/sim/random.h"
#include "src/timer/hierarchical_wheel.h"
#include "src/trace/codec.h"
#include "src/workloads/select_apps.h"
#include "src/workloads/vista_apps.h"

namespace tempo {
namespace {

// --- hierarchical wheel cascade boundaries ---

TEST(WheelBoundaryTest, ExactLevelBoundaryTimers) {
  // Timers at exactly 255, 256, 257 ticks: straddling the level-0/level-1
  // boundary where cascade bugs live.
  HierarchicalWheelTimerQueue wheel(kMillisecond);
  std::map<int, SimTime> fired;
  for (int ticks : {255, 256, 257, 16383, 16384, 16385}) {
    wheel.Schedule(static_cast<SimTime>(ticks) * kMillisecond,
                   [&fired, ticks](TimerHandle) { fired[ticks] = 1; });
  }
  wheel.Advance(20000 * kMillisecond);
  for (int ticks : {255, 256, 257, 16383, 16384, 16385}) {
    EXPECT_TRUE(fired.count(ticks)) << ticks << " ticks never fired";
  }
}

TEST(WheelBoundaryTest, CancelDuringCascadeWindow) {
  HierarchicalWheelTimerQueue wheel(kMillisecond);
  bool fired = false;
  // Lives in level 1; cancel after the hand is close but before cascade.
  const TimerHandle h =
      wheel.Schedule(300 * kMillisecond, [&](TimerHandle) { fired = true; });
  wheel.Advance(250 * kMillisecond);
  EXPECT_TRUE(wheel.Cancel(h));
  wheel.Advance(kSecond);
  EXPECT_FALSE(fired);
}

TEST(WheelBoundaryTest, AdvanceAcrossManyEmptyRevolutions) {
  HierarchicalWheelTimerQueue wheel(kMillisecond);
  bool fired = false;
  wheel.Schedule(100 * kSecond, [&](TimerHandle) { fired = true; });
  // One big jump across ~390 level-0 revolutions.
  wheel.Advance(99 * kSecond);
  EXPECT_FALSE(fired);
  wheel.Advance(101 * kSecond);
  EXPECT_TRUE(fired);
}

// --- codec fuzz ---

TEST(CodecFuzzTest, RandomBytesNeverCrashDecoder) {
  Rng rng(17);
  for (int trial = 0; trial < 2000; ++trial) {
    std::vector<uint8_t> bytes(kEncodedRecordSize);
    for (auto& b : bytes) {
      b = static_cast<uint8_t>(rng.NextU64());
    }
    const auto record = DecodeRecord(bytes.data());
    if (record.has_value()) {
      // A decoded record must re-encode without invariant violations.
      std::vector<uint8_t> out;
      EncodeRecord(*record, &out);
      EXPECT_EQ(out.size(), kEncodedRecordSize);
    }
  }
}

// --- event queue stale-id stress ---

TEST(EventQueueStressTest, StaleIdsRejectedAcrossManyCycles) {
  EventQueue queue;
  uint64_t fired = 0;
  // Fill and drain the queue repeatedly, so every slot is reused many
  // times over.
  std::vector<EventId> previous;
  for (int round = 0; round < 5; ++round) {
    std::vector<EventId> ids;
    for (int i = 0; i < 6000; ++i) {
      ids.push_back(queue.Schedule(i, [&fired] { ++fired; }));
    }
    // The previous round's ids name slots that now hold this round's
    // events; none of them may cancel one.
    int stale_canceled = 0;
    for (const EventId stale : previous) {
      stale_canceled += queue.Cancel(stale) ? 1 : 0;
    }
    EXPECT_EQ(stale_canceled, 0);
    // Cancel every third, pop the rest.
    for (size_t i = 0; i < ids.size(); i += 3) {
      queue.Cancel(ids[i]);
    }
    while (!queue.Empty()) {
      queue.Pop().fn();
    }
    // Stale ids from this round must not cancel anything ever again.
    EXPECT_FALSE(queue.Cancel(ids[1]));
    previous = std::move(ids);
  }
  EXPECT_EQ(fired, 5u * 4000u);
}

// --- FIFO network ordering ---

TEST(NetworkFifoTest, PacketsNeverReorderOnALink) {
  Simulator sim(31);
  SimNetwork net(&sim);
  const NodeId a = net.AddNode("a");
  const NodeId b = net.AddNode("b");
  LinkParams link;
  link.latency = kMillisecond;
  link.jitter_sigma = 1.0;  // violent jitter: FIFO must still hold
  net.SetLink(a, b, link);
  std::vector<int> arrivals;
  for (int i = 0; i < 500; ++i) {
    net.Send(a, b, 10, [&arrivals, i] { arrivals.push_back(i); });
  }
  sim.Run();
  ASSERT_EQ(arrivals.size(), 500u);
  for (int i = 0; i < 500; ++i) {
    EXPECT_EQ(arrivals[static_cast<size_t>(i)], i);
  }
}

// --- workload app models ---

TEST(SelectAppTest, CountdownResetsAfterFullExpiry) {
  Simulator sim(3);
  TraceRecorder buffer;
  LinuxKernel kernel(&sim, &buffer);
  LinuxSyscalls syscalls(&kernel);
  kernel.Boot();
  SelectLoopApp::Options options;
  options.full_timeout = 10 * kSecond;
  options.activity_rate = 1.0;
  SelectLoopApp app(&kernel, &syscalls, 1, 1, "x/select", options);
  app.Start();
  sim.RunUntil(2 * kMinute);
  EXPECT_GT(app.wakeups(), 50u);
  EXPECT_GT(app.timeouts(), 5u);  // the 10 s budget runs out repeatedly
  // The set values never exceed the programmer's full timeout.
  for (const auto& r : buffer.records()) {
    if (r.op == TimerOp::kSet && r.is_user()) {
      EXPECT_LE(r.timeout, 10 * kSecond);
    }
  }
}

TEST(PollAppTest, ValuesComeFromTheDeclaredSet) {
  Simulator sim(3);
  TraceRecorder buffer;
  LinuxKernel kernel(&sim, &buffer);
  LinuxSyscalls syscalls(&kernel);
  kernel.Boot();
  PollLoopApp::Options options;
  options.values = {{4 * kMillisecond, 0.5}, {8 * kMillisecond, 0.5}};
  options.cancel_probability = 0.0;
  PollLoopApp app(&kernel, &syscalls, 1, 1, "app/poll", options);
  app.Start();
  sim.RunUntil(10 * kSecond);
  EXPECT_GT(app.iterations(), 1000u);
  for (const auto& r : buffer.records()) {
    if (r.op == TimerOp::kSet && r.is_user()) {
      EXPECT_TRUE(r.timeout == 4 * kMillisecond || r.timeout == 8 * kMillisecond)
          << "unexpected value " << r.timeout;
    }
  }
}

TEST(VistaAppTest, WaitLoopMixesSatisfactionAndTimeouts) {
  Simulator sim(3);
  TraceRecorder session("etw", TraceRecorder::kUnbounded);
  VistaKernel kernel(&sim, &session);
  kernel.Boot();
  WaitLoopApp::Options options;
  options.timeout = 50 * kMillisecond;
  options.satisfied_probability = 0.5;
  WaitLoopApp app(&kernel, 1, 1, "svc/wait", options);
  app.Start();
  sim.RunUntil(kMinute);
  size_t satisfied = 0;
  size_t timed_out = 0;
  for (const auto& r : session.records()) {
    if (r.op == TimerOp::kUnblock) {
      ((r.flags & kFlagWaitSatisfied) != 0 ? satisfied : timed_out) += 1;
    }
  }
  EXPECT_GT(satisfied, 100u);
  EXPECT_GT(timed_out, 100u);
}

TEST(VistaAppTest, UpcallGuardStormsRaiseSetRate) {
  Simulator sim(3);
  TraceRecorder session("etw", TraceRecorder::kUnbounded);
  VistaKernel kernel(&sim, &session);
  kernel.Boot();
  UpcallGuardApp::Options options;
  options.baseline_rate = 50;
  options.storm_rate = 3000;
  options.storm_gap_mean = 20 * kSecond;
  UpcallGuardApp app(&kernel, 1, 1, "outlook/guard", options);
  app.Start();
  sim.RunUntil(2 * kMinute);
  EXPECT_GT(app.upcalls(), 5000u);
  // Nearly all guards are canceled (the upcall returns within ms).
  EXPECT_LT(app.guard_expiries(), app.upcalls() / 100 + 1);
  // Per-second set counts must show at least one storm window well above
  // the baseline.
  std::map<SimTime, uint64_t> per_second;
  for (const auto& r : session.records()) {
    if (r.op == TimerOp::kSet) {
      ++per_second[r.timestamp / kSecond];
    }
  }
  uint64_t peak = 0;
  for (const auto& [second, count] : per_second) {
    peak = std::max(peak, count);
  }
  EXPECT_GT(peak, 500u);
}

TEST(VistaAppTest, DeferredCloserFiresBetweenBursts) {
  Simulator sim(3);
  TraceRecorder session("etw", TraceRecorder::kUnbounded);
  VistaKernel kernel(&sim, &session);
  kernel.Boot();
  DeferredCloserApp::Options options;
  options.burst_rate = 0.1;  // a burst every ~10 s
  DeferredCloserApp app(&kernel, 1, 1, "registry/lazy", options);
  app.Start();
  sim.RunUntil(5 * kMinute);
  EXPECT_GT(app.closes(), 10u);
}

// --- HTTP failure path ---

TEST(HttpFailureTest, DeadServerFailsEveryRequestViaWatchdog) {
  Simulator sim(9);
  SimNetwork net(&sim);
  const NodeId server_node = net.AddNode("server");
  const NodeId client_node = net.AddNode("client");
  LinkParams dead;
  dead.unreachable = true;
  net.SetLink(client_node, server_node, dead);
  TcpStack server_stack(&sim, &net, server_node, nullptr, kKernelPid);
  TcpStack client_stack(&sim, &net, client_node, nullptr, kKernelPid);
  TcpListener* listener = server_stack.Listen();
  listener->on_accept = [](TcpConnection*) {};
  HttpLoadGenerator::Options load;
  load.total_requests = 20;
  load.parallel = 4;
  load.think_time_mean = 100 * kMillisecond;
  HttpLoadGenerator generator(&client_stack, listener, load);
  bool done = false;
  generator.Start([&] { done = true; });
  sim.RunUntil(10 * kMinute);
  EXPECT_TRUE(done);
  EXPECT_EQ(generator.completed(), 0u);
  EXPECT_EQ(generator.failed(), 20u);  // every request hit the 5 s watchdog
}

}  // namespace
}  // namespace tempo

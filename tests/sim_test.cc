// Unit tests for the simulation core: time, RNG, event queue, simulator,
// CPU accounting, process table.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <vector>

#include "src/obs/metrics.h"
#include "src/obs/probe.h"
#include "src/sim/cpu.h"
#include "src/sim/event_queue.h"
#include "src/sim/process.h"
#include "src/sim/random.h"
#include "src/sim/simulator.h"
#include "src/sim/time.h"

namespace tempo {
namespace {

// --- time.h ---

TEST(TimeTest, ConversionRoundTrips) {
  EXPECT_EQ(FromSeconds(1.0), kSecond);
  EXPECT_EQ(FromSeconds(0.5), 500 * kMillisecond);
  EXPECT_EQ(FromMilliseconds(1.0), kMillisecond);
  EXPECT_EQ(FromMicroseconds(1.0), kMicrosecond);
  EXPECT_DOUBLE_EQ(ToSeconds(kSecond), 1.0);
  EXPECT_DOUBLE_EQ(ToMilliseconds(kMillisecond), 1.0);
}

TEST(TimeTest, UnitRelationships) {
  EXPECT_EQ(kMicrosecond, 1000 * kNanosecond);
  EXPECT_EQ(kMillisecond, 1000 * kMicrosecond);
  EXPECT_EQ(kSecond, 1000 * kMillisecond);
  EXPECT_EQ(kMinute, 60 * kSecond);
  EXPECT_EQ(kHour, 60 * kMinute);
}

TEST(TimeTest, FormatDurationPicksUnits) {
  EXPECT_EQ(FormatDuration(2 * kSecond), "2s");
  EXPECT_EQ(FormatDuration(FromMilliseconds(1.5)), "1.5ms");
  EXPECT_EQ(FormatDuration(25 * kMicrosecond), "25us");
  EXPECT_EQ(FormatDuration(12), "12ns");
  EXPECT_EQ(FormatDuration(-2 * kSecond), "-2s");
  EXPECT_EQ(FormatDuration(7200 * kSecond), "7200s");
  // A damaged trace can carry any 64-bit value, including one with no
  // positive twin.
  EXPECT_EQ(FormatDuration(std::numeric_limits<SimDuration>::min()), "-9.22337e+09s");
}

// --- random.h ---

TEST(RngTest, DeterministicGivenSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int differing = 0;
  for (int i = 0; i < 64; ++i) {
    differing += a.NextU64() != b.NextU64() ? 1 : 0;
  }
  EXPECT_GT(differing, 60);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.NextDouble();
    ASSERT_GE(v, 0.0);
    ASSERT_LT(v, 1.0);
  }
}

TEST(RngTest, UniformIntCoversRangeInclusive) {
  Rng rng(9);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 10000; ++i) {
    const int64_t v = rng.UniformInt(3, 7);
    ASSERT_GE(v, 3);
    ASSERT_LE(v, 7);
    saw_lo = saw_lo || v == 3;
    saw_hi = saw_hi || v == 7;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, UniformIntDegenerateRange) {
  Rng rng(1);
  EXPECT_EQ(rng.UniformInt(5, 5), 5);
  EXPECT_EQ(rng.UniformInt(5, 4), 5);  // hi < lo clamps to lo
}

TEST(RngTest, BernoulliEdgeCases) {
  Rng rng(1);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
  }
}

TEST(RngTest, ExponentialMeanApproximatelyCorrect) {
  Rng rng(11);
  double sum = 0;
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i) {
    const double v = rng.Exponential(2.0);
    ASSERT_GE(v, 0.0);
    sum += v;
  }
  EXPECT_NEAR(sum / kN, 2.0, 0.05);
}

TEST(RngTest, NormalMomentsApproximatelyCorrect) {
  Rng rng(13);
  double sum = 0;
  double sq = 0;
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i) {
    const double v = rng.Normal(5.0, 2.0);
    sum += v;
    sq += v * v;
  }
  const double mean = sum / kN;
  const double var = sq / kN - mean * mean;
  EXPECT_NEAR(mean, 5.0, 0.05);
  EXPECT_NEAR(std::sqrt(var), 2.0, 0.05);
}

TEST(RngTest, ParetoRespectsScale) {
  Rng rng(17);
  for (int i = 0; i < 10000; ++i) {
    ASSERT_GE(rng.Pareto(1.5, 2.0), 1.5);
  }
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng a(21);
  Rng fork = a.Fork();
  // The fork and the parent should not produce identical streams.
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    same += a.NextU64() == fork.NextU64() ? 1 : 0;
  }
  EXPECT_LT(same, 4);
}

// --- event_queue.h ---

TEST(EventQueueTest, FiresInTimeOrder) {
  EventQueue queue;
  std::vector<int> order;
  queue.Schedule(30, [&] { order.push_back(3); });
  queue.Schedule(10, [&] { order.push_back(1); });
  queue.Schedule(20, [&] { order.push_back(2); });
  while (!queue.Empty()) {
    queue.Pop().fn();
  }
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueTest, SameTimeIsFifo) {
  EventQueue queue;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    queue.Schedule(5, [&order, i] { order.push_back(i); });
  }
  while (!queue.Empty()) {
    queue.Pop().fn();
  }
  std::vector<int> expected(10);
  std::iota(expected.begin(), expected.end(), 0);
  EXPECT_EQ(order, expected);
}

TEST(EventQueueTest, CancelPreventsExecution) {
  EventQueue queue;
  bool ran = false;
  const EventId id = queue.Schedule(10, [&] { ran = true; });
  EXPECT_TRUE(queue.Cancel(id));
  EXPECT_TRUE(queue.Empty());
  EXPECT_FALSE(ran);
}

TEST(EventQueueTest, CancelTwiceFails) {
  EventQueue queue;
  const EventId id = queue.Schedule(10, [] {});
  EXPECT_TRUE(queue.Cancel(id));
  EXPECT_FALSE(queue.Cancel(id));
}

TEST(EventQueueTest, CancelAfterPopFails) {
  EventQueue queue;
  const EventId id = queue.Schedule(10, [] {});
  queue.Pop();
  EXPECT_FALSE(queue.Cancel(id));
}

TEST(EventQueueTest, CancelUnknownIdFails) {
  EventQueue queue;
  EXPECT_FALSE(queue.Cancel(42));
}

TEST(EventQueueTest, NextTimeSkipsCanceled) {
  EventQueue queue;
  const EventId early = queue.Schedule(10, [] {});
  queue.Schedule(20, [] {});
  EXPECT_EQ(queue.NextTime(), 10);
  queue.Cancel(early);
  EXPECT_EQ(queue.NextTime(), 20);
}

TEST(EventQueueTest, EmptyQueueNextTimeIsNever) {
  EventQueue queue;
  EXPECT_EQ(queue.NextTime(), kNeverTime);
}

TEST(EventQueueTest, SizeTracksLiveEvents) {
  EventQueue queue;
  const EventId a = queue.Schedule(1, [] {});
  queue.Schedule(2, [] {});
  EXPECT_EQ(queue.Size(), 2u);
  queue.Cancel(a);
  EXPECT_EQ(queue.Size(), 1u);
  queue.Pop();
  EXPECT_EQ(queue.Size(), 0u);
}

TEST(EventQueueTest, ManyInterleavedOperations) {
  EventQueue queue;
  Rng rng(3);
  std::vector<EventId> live;
  int scheduled = 0;
  int fired = 0;
  int canceled = 0;
  for (int i = 0; i < 5000; ++i) {
    const double roll = rng.NextDouble();
    if (roll < 0.5 || live.empty()) {
      ++scheduled;
      live.push_back(queue.Schedule(rng.UniformInt(0, 1000), [&fired] { ++fired; }));
    } else if (roll < 0.75) {
      const size_t idx = static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(live.size()) - 1));
      if (queue.Cancel(live[idx])) {
        ++canceled;
      }
      live.erase(live.begin() + static_cast<ptrdiff_t>(idx));
    } else if (!queue.Empty()) {
      queue.Pop().fn();
    }
  }
  while (!queue.Empty()) {
    queue.Pop().fn();
  }
  // Every scheduled event either fired or was (successfully) canceled.
  EXPECT_EQ(fired + canceled, scheduled);
  EXPECT_GT(fired, 0);
  EXPECT_GT(canceled, 0);
}

// --- simulator.h ---

TEST(SimulatorTest, TimeAdvancesToEventTimes) {
  Simulator sim;
  std::vector<SimTime> seen;
  sim.ScheduleAt(100, [&] { seen.push_back(sim.Now()); });
  sim.ScheduleAt(50, [&] { seen.push_back(sim.Now()); });
  sim.Run();
  EXPECT_EQ(seen, (std::vector<SimTime>{50, 100}));
  EXPECT_EQ(sim.Now(), 100);
}

TEST(SimulatorTest, ScheduleInPastClampsToNow) {
  Simulator sim;
  sim.ScheduleAt(100, [&] {
    sim.ScheduleAt(10, [&] { EXPECT_EQ(sim.Now(), 100); });
  });
  sim.Run();
  EXPECT_EQ(sim.events_executed(), 2u);
}

TEST(SimulatorTest, RunUntilStopsAtDeadlineAndAdvancesClock) {
  Simulator sim;
  int fired = 0;
  sim.ScheduleAt(10, [&] { ++fired; });
  sim.ScheduleAt(2000, [&] { ++fired; });
  sim.RunUntil(1000);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.Now(), 1000);
  sim.RunUntil(3000);
  EXPECT_EQ(fired, 2);
}

TEST(SimulatorTest, EventExactlyAtDeadlineRuns) {
  Simulator sim;
  bool ran = false;
  sim.ScheduleAt(1000, [&] { ran = true; });
  sim.RunUntil(1000);
  EXPECT_TRUE(ran);
}

TEST(SimulatorTest, StopInterruptsRun) {
  Simulator sim;
  int fired = 0;
  sim.ScheduleAt(1, [&] {
    ++fired;
    sim.Stop();
  });
  sim.ScheduleAt(2, [&] { ++fired; });
  sim.Run();
  EXPECT_EQ(fired, 1);
}

TEST(SimulatorTest, CancelPendingEvent) {
  Simulator sim;
  bool ran = false;
  const EventId id = sim.ScheduleAfter(10, [&] { ran = true; });
  EXPECT_TRUE(sim.Cancel(id));
  sim.Run();
  EXPECT_FALSE(ran);
}

TEST(SimulatorTest, NegativeDelayClampsToZero) {
  Simulator sim;
  SimTime at = -1;
  sim.ScheduleAfter(-50, [&] { at = sim.Now(); });
  sim.Run();
  EXPECT_EQ(at, 0);
}

TEST(SimulatorTest, OptionsSeedMatchesSeedConstructor) {
  Simulator by_seed(42);
  Simulator::Options options;
  options.seed = 42;
  options.stats_label = "";
  Simulator by_options(options);
  // The simulator draws the seed's Rng stream verbatim, however it was
  // constructed: every recorded trace depends on this exact stream.
  Rng plain(42);
  for (int i = 0; i < 256; ++i) {
    const uint64_t want = plain.NextU64();
    ASSERT_EQ(by_seed.rng().NextU64(), want);
    ASSERT_EQ(by_options.rng().NextU64(), want);
  }
}

TEST(SimulatorTest, RunUntilAdvancesClockPastDrainedQueue) {
  Simulator sim;
  SimTime at = -1;
  sim.ScheduleAt(3 * kMicrosecond, [&] { at = sim.Now(); });
  sim.RunUntil(kMillisecond);
  EXPECT_EQ(at, 3 * kMicrosecond);
  // The queue drained at 3 us; the clock still advances to the deadline.
  EXPECT_EQ(sim.Now(), kMillisecond);
}

TEST(SimulatorTest, RunUntilFinishesIdleAccountingAtDeadline) {
  Simulator sim;
  sim.ScheduleAt(0, [&sim] { sim.cpu().EnterIdle(sim.Now()); });
  sim.RunUntil(20 * kMicrosecond);
  // The queue drained at t=0; the open idle period still runs to the
  // deadline the clock advanced to.
  EXPECT_EQ(sim.cpu().idle_time(), 20 * kMicrosecond);
}

TEST(SimulatorTest, CountsPendingAndExecutedEvents) {
  Simulator sim;
  sim.ScheduleAfter(kMicrosecond, [] {});
  const EventId canceled = sim.ScheduleAfter(2 * kMicrosecond, [] {});
  sim.ScheduleAfter(3 * kMicrosecond, [] {});
  EXPECT_EQ(sim.PendingEvents(), 3u);
  EXPECT_TRUE(sim.Cancel(canceled));
  EXPECT_EQ(sim.PendingEvents(), 2u);
  sim.Run();
  EXPECT_EQ(sim.PendingEvents(), 0u);
  EXPECT_EQ(sim.events_executed(), 2u);
}

TEST(SimulatorTest, StopInsideRunUntilKeepsClockAndResumes) {
  Simulator sim;
  sim.ScheduleAt(0, [&sim] { sim.cpu().EnterIdle(sim.Now()); });
  sim.ScheduleAt(5 * kMicrosecond, [&sim] { sim.Stop(); });
  sim.ScheduleAt(8 * kMicrosecond, [] {});
  sim.RunUntil(kMillisecond);
  // A stopped run leaves the clock at the stopping event, not the
  // deadline, and still finalizes idle accounting there.
  EXPECT_EQ(sim.Now(), 5 * kMicrosecond);
  EXPECT_EQ(sim.events_executed(), 2u);
  EXPECT_EQ(sim.cpu().idle_time(), 5 * kMicrosecond);
  // The stop request is consumed: the next run resumes where it left off.
  sim.RunUntil(kMillisecond);
  EXPECT_EQ(sim.events_executed(), 3u);
  EXPECT_EQ(sim.Now(), kMillisecond);
  EXPECT_EQ(sim.cpu().idle_time(), kMillisecond);
}

// --- cpu.h ---

TEST(CpuTest, WakeupCountedOnExitIdle) {
  Cpu cpu;
  cpu.EnterIdle(0);
  cpu.ExitIdle(100);
  EXPECT_EQ(cpu.wakeups(), 1u);
  EXPECT_EQ(cpu.idle_time(), 100);
}

TEST(CpuTest, InterruptWhileIdleWakes) {
  Cpu cpu;
  cpu.EnterIdle(0);
  cpu.OnInterrupt(50, /*timer=*/true);
  EXPECT_EQ(cpu.wakeups(), 1u);
  EXPECT_EQ(cpu.interrupts(), 1u);
  EXPECT_EQ(cpu.timer_interrupts(), 1u);
  EXPECT_FALSE(cpu.idle());
}

TEST(CpuTest, RedundantIdleTransitionsIgnored) {
  Cpu cpu;
  cpu.EnterIdle(0);
  cpu.EnterIdle(10);
  cpu.ExitIdle(20);
  cpu.ExitIdle(30);
  EXPECT_EQ(cpu.wakeups(), 1u);
  EXPECT_EQ(cpu.idle_time(), 20);
}

TEST(CpuTest, FinishFlushesOpenIdlePeriod) {
  Cpu cpu;
  cpu.EnterIdle(0);
  cpu.Finish(500);
  EXPECT_EQ(cpu.idle_time(), 500);
}

TEST(CpuTest, CyclesToDurationUsesFrequency) {
  Cpu cpu(1.0);  // 1 GHz: 1 cycle = 1 ns
  EXPECT_EQ(cpu.CyclesToDuration(1000), 1000);
  Cpu fast(2.0);
  EXPECT_EQ(fast.CyclesToDuration(1000), 500);
}

TEST(CpuTest, ChargeCyclesAccumulates) {
  Cpu cpu;
  cpu.ChargeCycles(236);
  cpu.ChargeCycles(236);
  EXPECT_EQ(cpu.charged_cycles(), 472u);
}

// --- process.h ---

TEST(ProcessTableTest, KernelIsPidZero) {
  ProcessTable table;
  EXPECT_EQ(table.Get(kKernelPid).name, "kernel");
  EXPECT_TRUE(table.Get(kKernelPid).is_kernel);
}

TEST(ProcessTableTest, AddProcessAssignsSequentialPids) {
  ProcessTable table;
  const Pid a = table.AddProcess("a");
  const Pid b = table.AddProcess("b");
  EXPECT_EQ(a, 1);
  EXPECT_EQ(b, 2);
  EXPECT_EQ(table.Get(a).name, "a");
  EXPECT_FALSE(table.Get(a).is_kernel);
}

TEST(ProcessTableTest, ThreadsBelongToProcesses) {
  ProcessTable table;
  const Pid p = table.AddProcess("p");
  const Tid t1 = table.AddThread(p);
  const Tid t2 = table.AddThread(p);
  EXPECT_NE(t1, t2);
  EXPECT_EQ(table.ThreadProcess(t1), p);
  EXPECT_EQ(table.ThreadProcess(t2), p);
}

// --- event_queue.h lazy-deletion edges ---

TEST(EventQueueTest, CancelThenPopSameTimestampKeepsFifo) {
  EventQueue q;
  std::vector<int> order;
  q.Schedule(5, [&order] { order.push_back(1); });
  const EventId middle = q.Schedule(5, [&order] { order.push_back(2); });
  q.Schedule(5, [&order] { order.push_back(3); });
  EXPECT_TRUE(q.Cancel(middle));
  // The canceled entry still holds a heap slot at the same timestamp; Pop
  // must skip it without disturbing the FIFO order of its neighbours.
  while (!q.Empty()) {
    EventQueue::Fired fired = q.Pop();
    fired.fn();
  }
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
}

TEST(EventQueueTest, NextTimeOnAllCanceledHeapIsNever) {
  EventQueue q;
  std::vector<EventId> ids;
  for (int i = 0; i < 8; ++i) {
    ids.push_back(q.Schedule(10 + i, [] {}));
  }
  for (const EventId id : ids) {
    EXPECT_TRUE(q.Cancel(id));
  }
  // Every heap entry is a tombstone: NextTime must drain them all and
  // report empty rather than a canceled entry's timestamp.
  EXPECT_EQ(q.NextTime(), kNeverTime);
  EXPECT_TRUE(q.Empty());
  EXPECT_EQ(q.Size(), 0u);
  // Draining also reset the id index; the queue is fully reusable.
  const EventId fresh = q.Schedule(42, [] {});
  EXPECT_EQ(q.NextTime(), 42);
  EXPECT_TRUE(q.Cancel(fresh));
  EXPECT_EQ(q.NextTime(), kNeverTime);
}

TEST(EventQueueTest, IndexCompactionThresholdCrossing) {
  // The id index compacts its dead prefix once it exceeds 4096 entries and
  // outweighs the live remainder. Drive well past that threshold and check
  // Cancel still resolves ids correctly on both sides of the compaction.
  EventQueue q;
  constexpr int kCount = 10000;
  std::vector<EventId> ids;
  ids.reserve(kCount);
  int fired = 0;
  for (int i = 0; i < kCount; ++i) {
    ids.push_back(q.Schedule(i, [&fired] { ++fired; }));
  }
  int canceled = 0;
  for (int i = 0; i < kCount; i += 3) {
    ASSERT_TRUE(q.Cancel(ids[i]));
    ++canceled;
  }
  SimTime last = -1;
  while (q.Size() > 100) {
    EventQueue::Fired f = q.Pop();
    EXPECT_GE(f.at, last);
    last = f.at;
    f.fn();
  }
  // Ids consumed before the compaction point are gone for good.
  EXPECT_FALSE(q.Cancel(ids[1]));
  EXPECT_FALSE(q.Cancel(ids[3]));  // canceled earlier, not cancelable twice
  // A still-live tail id resolves through the compacted index.
  ASSERT_NE(0, (kCount - 2) % 3);
  EXPECT_TRUE(q.Cancel(ids[kCount - 2]));
  while (!q.Empty()) {
    q.Pop().fn();
  }
  EXPECT_EQ(fired, kCount - canceled - 1);
}

// --- simulator accounting regressions ---

TEST(SimulatorTest, RunFinalizesIdleAccountingLikeRunUntil) {
  const auto build = [](Simulator& sim) {
    sim.ScheduleAt(0, [&sim] { sim.cpu().EnterIdle(sim.Now()); });
    sim.ScheduleAt(10 * kMicrosecond, [] {});
  };
  Simulator a(1);
  build(a);
  a.Run();
  Simulator b(1);
  build(b);
  b.RunUntil(10 * kMicrosecond);
  // Run() used to exit without Cpu::Finish, silently dropping the open
  // idle period that RunUntil() accounted for.
  EXPECT_EQ(a.cpu().idle_time(), 10 * kMicrosecond);
  EXPECT_EQ(a.cpu().idle_time(), b.cpu().idle_time());
}

TEST(SimulatorTest, ProbeClockAutoUninstallsOnDestruction) {
  {
    Simulator sim(7);
    InstallSimProbeClock(&sim);
    sim.ScheduleAfter(5, [] {});
    sim.Run();
    EXPECT_EQ(obs::ProbeClockNow(), 5u);
  }
  // The destructor must restore the default clock; before the fix the
  // probe clock kept reading the destroyed simulator (a use-after-free
  // under ASan).
  EXPECT_EQ(obs::internal::g_probe_clock, &obs::WallCycleClock);
  (void)obs::ProbeClockNow();
}

TEST(SimulatorObsTest, QueueDepthHwmIsPerInstance) {
  Simulator::Options a;
  a.stats_label = "hwm_test_a";
  Simulator sa(a);
  sa.ScheduleAfter(1, [] {});
  sa.ScheduleAfter(2, [] {});
  sa.ScheduleAfter(3, [] {});
  Simulator::Options b;
  b.stats_label = "hwm_test_b";
  Simulator sb(b);
  sb.ScheduleAfter(1, [] {});
  const obs::MetricsSnapshot snap = obs::Registry::Global().TakeSnapshot();
  const obs::SnapshotEntry* ga =
      snap.Find("sim_event_queue_depth_hwm", {{"cpu", "0"}, {"sim", "hwm_test_a"}});
  const obs::SnapshotEntry* gb =
      snap.Find("sim_event_queue_depth_hwm", {{"cpu", "0"}, {"sim", "hwm_test_b"}});
  ASSERT_NE(ga, nullptr);
  ASSERT_NE(gb, nullptr);
  // One process-global high-water mark would report max(3, 1) for both.
  EXPECT_EQ(ga->value, 3);
  EXPECT_EQ(gb->value, 1);
}

TEST(SimulatorObsTest, QueueDepthHwmRebaselinesAcrossInstances) {
  Simulator::Options options;
  options.stats_label = "hwm_test_rebase";
  {
    Simulator deep(options);
    for (int i = 1; i <= 5; ++i) {
      deep.ScheduleAfter(i, [] {});
    }
    deep.Run();
  }
  Simulator shallow(options);
  shallow.ScheduleAfter(1, [] {});
  shallow.ScheduleAfter(2, [] {});
  const obs::MetricsSnapshot snap = obs::Registry::Global().TakeSnapshot();
  const obs::SnapshotEntry* gauge = snap.Find(
      "sim_event_queue_depth_hwm", {{"cpu", "0"}, {"sim", "hwm_test_rebase"}});
  ASSERT_NE(gauge, nullptr);
  // A Max-only process gauge would still read the first simulator's 5.
  EXPECT_EQ(gauge->value, 2);
}

TEST(SimulatorObsTest, EmptyStatsLabelSuppressesInstruments) {
  Simulator::Options options;
  options.seed = 3;
  options.stats_label = "";
  Simulator sim(options);
  sim.ScheduleAfter(1, [] {});
  sim.Run();
  EXPECT_EQ(sim.events_executed(), 1u);
  const obs::MetricsSnapshot snap = obs::Registry::Global().TakeSnapshot();
  EXPECT_EQ(snap.Find("sim_events_executed", {{"cpu", "0"}, {"sim", ""}}), nullptr);
}

}  // namespace
}  // namespace tempo

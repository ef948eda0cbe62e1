// Tests for the Vista timer model: KTIMER semantics, clock-interrupt
// quantisation, thread waits, and the user-level timer stack.

#include <gtest/gtest.h>

#include <set>

#include "src/osvista/kernel.h"
#include "src/osvista/userapi.h"
#include "src/sim/simulator.h"
#include "src/trace/buffer.h"

namespace tempo {
namespace {

size_t CountOps(const std::vector<TraceRecord>& records, TimerOp op) {
  size_t n = 0;
  for (const auto& r : records) {
    if (r.op == op) {
      ++n;
    }
  }
  return n;
}

class VistaKernelTest : public ::testing::Test {
 protected:
  VistaKernelTest() : kernel_(&sim_, &session_) { kernel_.Boot(); }

  Simulator sim_{1};
  TraceRecorder session_{"etw", TraceRecorder::kUnbounded};
  VistaKernel kernel_;
};

TEST_F(VistaKernelTest, TimerFiresOnClockInterrupt) {
  SimTime fired_at = -1;
  KTimer* t = kernel_.AllocateTimer("test/a", kKernelPid, 0, [&] { fired_at = sim_.Now(); });
  kernel_.KeSetTimer(t, 20 * kMillisecond);
  sim_.RunUntil(kSecond);
  // Delivered on the first clock interrupt at/after the due time: the tick
  // grid is 15.625 ms, so 20 ms is processed at 31.25 ms.
  EXPECT_EQ(fired_at, 31250 * kMicrosecond);
}

TEST_F(VistaKernelTest, SubTickTimeoutDeliveredLate) {
  // The paper's point about sub-millisecond Vista timers: a 1 ms timeout is
  // delivered at the next 15.6 ms interrupt — over 1500% of its duration.
  SimTime fired_at = -1;
  KTimer* t = kernel_.AllocateTimer("test/a", kKernelPid, 0, [&] { fired_at = sim_.Now(); });
  kernel_.KeSetTimer(t, kMillisecond);
  sim_.RunUntil(kSecond);
  EXPECT_EQ(fired_at, 15625 * kMicrosecond);
}

TEST_F(VistaKernelTest, CancelBeforeExpiry) {
  bool fired = false;
  KTimer* t = kernel_.AllocateTimer("test/a", kKernelPid, 0, [&] { fired = true; });
  kernel_.KeSetTimer(t, 100 * kMillisecond);
  EXPECT_TRUE(kernel_.KeCancelTimer(t));
  EXPECT_FALSE(kernel_.KeCancelTimer(t));  // already canceled
  sim_.RunUntil(kSecond);
  EXPECT_FALSE(fired);
  EXPECT_EQ(CountOps(session_.records(), TimerOp::kCancel), 1u);
}

TEST_F(VistaKernelTest, ReSetWhilePendingProducesNoCancelRecord) {
  KTimer* t = kernel_.AllocateTimer("test/a", kKernelPid, 0, nullptr);
  kernel_.KeSetTimer(t, 100 * kMillisecond);
  kernel_.KeSetTimer(t, 200 * kMillisecond);
  EXPECT_EQ(CountOps(session_.records(), TimerOp::kSet), 2u);
  EXPECT_EQ(CountOps(session_.records(), TimerOp::kCancel), 0u);
  sim_.RunUntil(kSecond);
  EXPECT_EQ(CountOps(session_.records(), TimerOp::kExpire), 1u);
}

TEST_F(VistaKernelTest, DynamicAllocationAliasesRecycledIdentity) {
  // Trace identity is the storage address: freed KTIMERs are recycled, so
  // sequential logical timeouts alias one identity — while two LIVE timers
  // never share one. This is the instrumentation headache of Section 3.3;
  // kFlagDynamicAlloc marks the records so analysis clusters by call-site.
  std::set<TimerId> sequential_ids;
  for (int i = 0; i < 5; ++i) {
    KTimer* t = kernel_.AllocateTimer("afd/select", 1, 1, nullptr, /*dynamic=*/true);
    kernel_.KeSetTimer(t, 10 * kMillisecond);
    sequential_ids.insert(t->id);
    kernel_.KeCancelTimer(t);
    kernel_.FreeTimer(t);
  }
  EXPECT_EQ(sequential_ids.size(), 1u);  // storage (= identity) reused

  std::set<TimerId> live_ids;
  std::vector<KTimer*> live;
  for (int i = 0; i < 5; ++i) {
    KTimer* t = kernel_.AllocateTimer("afd/select", 1, 1, nullptr, /*dynamic=*/true);
    live.push_back(t);
    live_ids.insert(t->id);
  }
  EXPECT_EQ(live_ids.size(), 5u);  // concurrent timers are distinct
  for (KTimer* t : live) {
    kernel_.FreeTimer(t);
  }
  for (const auto& r : session_.records()) {
    EXPECT_NE(r.flags & kFlagDynamicAlloc, 0);
  }
}

TEST_F(VistaKernelTest, FreeTimerCancelsSilently) {
  bool fired = false;
  KTimer* t = kernel_.AllocateTimer("test/a", kKernelPid, 0, [&] { fired = true; });
  kernel_.KeSetTimer(t, 100 * kMillisecond);
  const size_t cancels = CountOps(session_.records(), TimerOp::kCancel);
  kernel_.FreeTimer(t);
  sim_.RunUntil(kSecond);
  EXPECT_FALSE(fired);
  EXPECT_EQ(CountOps(session_.records(), TimerOp::kCancel), cancels);
}

TEST_F(VistaKernelTest, WaitTimesOutAndLogsBlockUnblock) {
  bool satisfied = true;
  kernel_.BlockThread(1, 1, "app/wait", 50 * kMillisecond, [&](bool s) { satisfied = s; });
  sim_.RunUntil(kSecond);
  EXPECT_FALSE(satisfied);
  ASSERT_EQ(CountOps(session_.records(), TimerOp::kBlock), 1u);
  ASSERT_EQ(CountOps(session_.records(), TimerOp::kUnblock), 1u);
  for (const auto& r : session_.records()) {
    if (r.op == TimerOp::kUnblock) {
      EXPECT_EQ(r.flags & kFlagWaitSatisfied, 0);
      EXPECT_EQ(r.timeout, 50 * kMillisecond);
    }
  }
}

TEST_F(VistaKernelTest, SignaledWaitIsSatisfied) {
  bool satisfied = false;
  SimTime woke_at = -1;
  VistaKernel::Wait* wait =
      kernel_.BlockThread(1, 1, "app/wait", 500 * kMillisecond, [&](bool s) {
        satisfied = s;
        woke_at = sim_.Now();
      });
  sim_.ScheduleAt(100 * kMillisecond, [&] { EXPECT_TRUE(kernel_.Signal(wait)); });
  sim_.RunUntil(kSecond);
  EXPECT_TRUE(satisfied);
  EXPECT_EQ(woke_at, 100 * kMillisecond);
  EXPECT_FALSE(kernel_.Signal(wait));  // already complete
  bool flagged = false;
  for (const auto& r : session_.records()) {
    if (r.op == TimerOp::kUnblock) {
      flagged = (r.flags & kFlagWaitSatisfied) != 0;
    }
  }
  EXPECT_TRUE(flagged);
}

TEST_F(VistaKernelTest, InfiniteWaitOnlySignalable) {
  bool woke = false;
  VistaKernel::Wait* wait =
      kernel_.BlockThread(1, 1, "app/wait", kNeverTime, [&](bool) { woke = true; });
  sim_.RunUntil(10 * kSecond);
  EXPECT_FALSE(woke);
  kernel_.Signal(wait);
  EXPECT_TRUE(woke);
}

TEST_F(VistaKernelTest, WaitTimerIdentityIsStablePerThread) {
  // The per-thread wait KTIMER is the stable exception to Vista's dynamic
  // allocation.
  kernel_.BlockThread(1, 1, "app/wait", 10 * kMillisecond, nullptr);
  sim_.RunUntil(kSecond);
  kernel_.BlockThread(1, 1, "app/wait", 10 * kMillisecond, nullptr);
  sim_.RunUntil(2 * kSecond);
  std::set<TimerId> ids;
  for (const auto& r : session_.records()) {
    if (r.op == TimerOp::kBlock) {
      ids.insert(r.timer);
    }
  }
  EXPECT_EQ(ids.size(), 1u);
}

TEST(VistaCoalescingTest, IdleTicksAreSkipped) {
  Simulator sim(1);
  TraceRecorder session("etw", TraceRecorder::kUnbounded);
  VistaKernel::Options options;
  options.coalesce_ticks = true;
  VistaKernel kernel(&sim, &session, options);
  kernel.Boot();
  sim.RunUntil(10 * kSecond);
  const uint64_t idle_interrupts = kernel.clock_interrupts();
  // Uncoalesced would be 640 interrupts over 10 s.
  EXPECT_LT(idle_interrupts, 100u);
  EXPECT_GT(kernel.ticks_coalesced(), 0u);
}

TEST(VistaCoalescingTest, NearTimerPullsInterruptForward) {
  Simulator sim(1);
  TraceRecorder session("etw", TraceRecorder::kUnbounded);
  VistaKernel::Options options;
  options.coalesce_ticks = true;
  VistaKernel kernel(&sim, &session, options);
  kernel.Boot();
  sim.RunUntil(kSecond);
  SimTime fired_at = -1;
  KTimer* t = kernel.AllocateTimer("test/a", kKernelPid, 0, [&] { fired_at = sim.Now(); });
  kernel.KeSetTimer(t, 30 * kMillisecond);
  sim.RunUntil(2 * kSecond);
  ASSERT_GE(fired_at, kSecond + 30 * kMillisecond);
  EXPECT_LE(fired_at, kSecond + 30 * kMillisecond + 2 * kVistaClockTick);
}

// --- user API ---

class VistaUserApiTest : public ::testing::Test {
 protected:
  VistaUserApiTest() : kernel_(&sim_, &session_), api_(&kernel_) { kernel_.Boot(); }

  Simulator sim_{1};
  TraceRecorder session_{"etw", TraceRecorder::kUnbounded};
  VistaKernel kernel_;
  VistaUserApi api_;
};

TEST_F(VistaUserApiTest, NtTimerPeriodicFiresRepeatedly) {
  int fired = 0;
  NtTimer* t = api_.NtCreateTimer(1, 1, "app/nt_timer", [&] { ++fired; });
  t->Set(100 * kMillisecond, 100 * kMillisecond);
  sim_.RunUntil(kSecond);
  EXPECT_GE(fired, 8);
  t->Cancel();
  const int at_cancel = fired;
  sim_.RunUntil(2 * kSecond);
  EXPECT_EQ(fired, at_cancel);
}

TEST_F(VistaUserApiTest, ThreadpoolMultiplexesOverOneKernelTimer) {
  ThreadpoolPool* pool = api_.CreatePool(1, 1, "app");
  int a = 0;
  int b = 0;
  pool->CreateTimer([&] { ++a; })->Set(50 * kMillisecond);
  pool->CreateTimer([&] { ++b; })->Set(120 * kMillisecond);
  sim_.RunUntil(kSecond);
  EXPECT_EQ(a, 1);
  EXPECT_EQ(b, 1);
  // All kernel sets came from the single pool timer.
  std::set<TimerId> set_ids;
  for (const auto& r : session_.records()) {
    if (r.op == TimerOp::kSet) {
      set_ids.insert(r.timer);
    }
  }
  EXPECT_EQ(set_ids.size(), 1u);
}

TEST_F(VistaUserApiTest, ThreadpoolPeriodicTimer) {
  ThreadpoolPool* pool = api_.CreatePool(1, 1, "app");
  int fired = 0;
  ThreadpoolTimer* t = pool->CreateTimer([&] { ++fired; });
  t->Set(100 * kMillisecond, 100 * kMillisecond);
  sim_.RunUntil(kSecond);
  EXPECT_GE(fired, 8);
  t->Cancel();
  const int at_cancel = fired;
  sim_.RunUntil(2 * kSecond);
  EXPECT_EQ(fired, at_cancel);
}

TEST_F(VistaUserApiTest, GuiTimerIsPeriodicWithDispatchLatency) {
  MessageQueue* queue = api_.CreateMessageQueue(1, 1, "app");
  std::vector<SimTime> fires;
  const uint32_t id = queue->SetTimer(100 * kMillisecond,
                                      [&] { fires.push_back(sim_.Now()); });
  sim_.RunUntil(kSecond);
  EXPECT_GE(fires.size(), 7u);
  // WM_TIMER dispatch adds latency beyond the kernel expiry.
  for (size_t i = 0; i < fires.size(); ++i) {
    EXPECT_GT(fires[i], static_cast<SimTime>(i + 1) * 100 * kMillisecond);
  }
  EXPECT_TRUE(queue->KillTimer(id));
  EXPECT_FALSE(queue->KillTimer(id));
  const size_t at_kill = fires.size();
  sim_.RunUntil(2 * kSecond);
  EXPECT_LE(fires.size(), at_kill + 1);  // at most one already-queued message
}

TEST_F(VistaUserApiTest, GuiTimerClampsToUserTimerMinimum) {
  MessageQueue* queue = api_.CreateMessageQueue(1, 1, "app");
  int fired = 0;
  queue->SetTimer(kMillisecond, [&] { ++fired; });  // clamped to 10 ms
  sim_.RunUntil(kSecond);
  // At 1 ms this would approach 1000 fires; clamped + tick-quantised it is
  // bounded by 1s / 15.6ms = 64.
  EXPECT_LE(fired, 70);
  EXPECT_GE(fired, 30);
}

TEST_F(VistaUserApiTest, AfdSelectTimesOut) {
  bool timed_out = false;
  api_.Select(1, 1, "app/select", 50 * kMillisecond, [&](bool t) { timed_out = t; });
  sim_.RunUntil(kSecond);
  EXPECT_TRUE(timed_out);
}

TEST_F(VistaUserApiTest, AfdSelectCompleteCancelsTimer) {
  bool timed_out = true;
  AfdSelect* select =
      api_.Select(1, 1, "app/select", 500 * kMillisecond, [&](bool t) { timed_out = t; });
  sim_.ScheduleAt(10 * kMillisecond, [&] { EXPECT_TRUE(select->Complete()); });
  sim_.RunUntil(kSecond);
  EXPECT_FALSE(timed_out);
  EXPECT_EQ(CountOps(session_.records(), TimerOp::kCancel), 1u);
}

TEST_F(VistaUserApiTest, AfdSelectsAreDynamicAllocRecords) {
  for (int i = 0; i < 4; ++i) {
    api_.Select(1, 1, "app/select", 10 * kMillisecond, nullptr);
    sim_.RunUntil(sim_.Now() + 100 * kMillisecond);
  }
  // Every afd select timer record is flagged as dynamically allocated, so
  // the analysis never trusts its identity.
  size_t sets = 0;
  for (const auto& r : session_.records()) {
    if (r.op == TimerOp::kSet) {
      ++sets;
      EXPECT_NE(r.flags & kFlagDynamicAlloc, 0);
    }
  }
  EXPECT_EQ(sets, 4u);
}

TEST_F(VistaUserApiTest, SleepCompletes) {
  SimTime woke = -1;
  api_.Sleep(1, 1, "app/sleep", 100 * kMillisecond, [&] { woke = sim_.Now(); });
  sim_.RunUntil(kSecond);
  EXPECT_GE(woke, 100 * kMillisecond);
  EXPECT_LE(woke, 100 * kMillisecond + 2 * kVistaClockTick);
}

}  // namespace
}  // namespace tempo

namespace tempo {
namespace {

TEST(VistaResolutionTest, BeginTimerResolutionRaisesTickRate) {
  Simulator sim(1);
  TraceRecorder session("etw", TraceRecorder::kUnbounded);
  VistaKernel kernel(&sim, &session);
  kernel.Boot();
  EXPECT_EQ(kernel.effective_tick(), kVistaClockTick);
  // A multimedia app requests 1 ms resolution (timeBeginPeriod(1)).
  kernel.BeginTimerResolution(kMillisecond);
  EXPECT_EQ(kernel.effective_tick(), kMillisecond);
  SimTime fired_at = -1;
  KTimer* t = kernel.AllocateTimer("mm/frame", 1, 1, [&] { fired_at = sim.Now(); });
  sim.RunUntil(100 * kMillisecond);
  kernel.KeSetTimer(t, 2 * kMillisecond);
  sim.RunUntil(kSecond);
  // Delivered on the 1 ms grid instead of waiting for a 15.6 ms interrupt.
  ASSERT_GE(fired_at, 102 * kMillisecond);
  EXPECT_LE(fired_at, 103 * kMillisecond + kMillisecond);
}

TEST(VistaResolutionTest, EndTimerResolutionRestoresDefault) {
  Simulator sim(1);
  TraceRecorder session("etw", TraceRecorder::kUnbounded);
  VistaKernel kernel(&sim, &session);
  kernel.Boot();
  kernel.BeginTimerResolution(kMillisecond);
  kernel.BeginTimerResolution(4 * kMillisecond);
  EXPECT_EQ(kernel.effective_tick(), kMillisecond);
  kernel.EndTimerResolution(kMillisecond);
  EXPECT_EQ(kernel.effective_tick(), 4 * kMillisecond);
  kernel.EndTimerResolution(4 * kMillisecond);
  EXPECT_EQ(kernel.effective_tick(), kVistaClockTick);
}

TEST(VistaResolutionTest, FloorAtOneMillisecond) {
  Simulator sim(1);
  TraceRecorder session("etw", TraceRecorder::kUnbounded);
  VistaKernel kernel(&sim, &session);
  kernel.BeginTimerResolution(10 * kMicrosecond);
  EXPECT_EQ(kernel.effective_tick(), kMillisecond);
}

TEST(VistaResolutionTest, BoostCostsInterrupts) {
  // The price of timeBeginPeriod(1): ~16x the clock interrupts — the CPU
  // overhead the paper attributes to timer facilities under multimedia
  // load.
  auto interrupts_with = [](bool boost) {
    Simulator sim(1);
    TraceRecorder session("etw", TraceRecorder::kUnbounded);
    VistaKernel kernel(&sim, &session);
    kernel.Boot();
    if (boost) {
      kernel.BeginTimerResolution(kMillisecond);
    }
    sim.RunUntil(10 * kSecond);
    return kernel.clock_interrupts();
  };
  const uint64_t base = interrupts_with(false);
  const uint64_t boosted = interrupts_with(true);
  EXPECT_GT(boosted, 10 * base);
}

}  // namespace
}  // namespace tempo

namespace tempo {
namespace {

class MultiWaitTest : public ::testing::Test {
 protected:
  MultiWaitTest() : kernel_(&sim_, &session_), api_(&kernel_) { kernel_.Boot(); }

  Simulator sim_{1};
  TraceRecorder session_{"etw", TraceRecorder::kUnbounded};
  VistaKernel kernel_;
  VistaUserApi api_;
};

TEST_F(MultiWaitTest, SignalledObjectIndexReturned) {
  int result = -99;
  MultiWait* wait = api_.WaitForMultipleObjects(1, 1, "app/wfmo", 4, kSecond,
                                                [&](int index) { result = index; });
  sim_.ScheduleAt(100 * kMillisecond, [&] { EXPECT_TRUE(wait->Signal(2)); });
  sim_.RunUntil(10 * kSecond);
  EXPECT_EQ(result, 2);
  EXPECT_TRUE(wait->done());
}

TEST_F(MultiWaitTest, TimeoutReturnsMinusOne) {
  int result = -99;
  api_.WaitForMultipleObjects(1, 1, "app/wfmo", 4, 50 * kMillisecond,
                              [&](int index) { result = index; });
  sim_.RunUntil(kSecond);
  EXPECT_EQ(result, -1);  // WAIT_TIMEOUT
}

TEST_F(MultiWaitTest, SecondSignalRejected) {
  MultiWait* wait = api_.WaitForMultipleObjects(1, 1, "app/wfmo", 2, kSecond, nullptr);
  EXPECT_TRUE(wait->Signal(0));
  EXPECT_FALSE(wait->Signal(1));  // already complete
}

TEST_F(MultiWaitTest, OutOfRangeIndexRejected) {
  MultiWait* wait = api_.WaitForMultipleObjects(1, 1, "app/wfmo", 2, kSecond, nullptr);
  EXPECT_FALSE(wait->Signal(2));
  EXPECT_FALSE(wait->done());
  EXPECT_TRUE(wait->Signal(1));
}

TEST_F(MultiWaitTest, UsesOnePerThreadTimerRegardlessOfObjectCount) {
  // The wait fast path: one dedicated KTIMER per thread, not per object.
  for (int round = 0; round < 3; ++round) {
    api_.WaitForMultipleObjects(1, 1, "app/wfmo", 64, 10 * kMillisecond, nullptr);
    sim_.RunUntil(sim_.Now() + kSecond);
  }
  std::set<TimerId> block_timers;
  for (const auto& r : session_.records()) {
    if (r.op == TimerOp::kBlock) {
      block_timers.insert(r.timer);
    }
  }
  EXPECT_EQ(block_timers.size(), 1u);
}

TEST_F(MultiWaitTest, InfiniteWaitOnlyCompletesOnSignal) {
  int result = -99;
  MultiWait* wait = api_.WaitForMultipleObjects(1, 1, "app/wfmo", 3, kNeverTime,
                                                [&](int index) { result = index; });
  sim_.RunUntil(kMinute);
  EXPECT_EQ(result, -99);
  wait->Signal(1);
  EXPECT_EQ(result, 1);
}

}  // namespace
}  // namespace tempo

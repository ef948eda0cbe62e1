// Tests for the Linux timer-subsystem model: jiffies, the instrumented
// timer interface, dynticks/deferrable/round_jiffies, hrtimers, syscalls
// and the kernel subsystem clients.

#include <gtest/gtest.h>

#include <set>

#include "src/oslinux/jiffies.h"
#include "src/oslinux/kernel.h"
#include "src/oslinux/subsystems.h"
#include "src/oslinux/syscalls.h"
#include "src/oslinux/timer_stats.h"
#include "src/sim/simulator.h"
#include "src/trace/buffer.h"

namespace tempo {
namespace {

// Counts records of one op for one timer.
size_t CountOps(const std::vector<TraceRecord>& records, TimerOp op,
                TimerId timer = kInvalidTimerId) {
  size_t n = 0;
  for (const auto& r : records) {
    if (r.op == op && (timer == kInvalidTimerId || r.timer == timer)) {
      ++n;
    }
  }
  return n;
}

LinuxKernel::Options NoJitter() {
  LinuxKernel::Options options;
  options.max_set_jitter = 0;
  return options;
}

// --- jiffies.h ---

TEST(JiffiesTest, Basics) {
  EXPECT_EQ(kJiffy, 4 * kMillisecond);
  EXPECT_EQ(DurationToJiffies(0), 0u);
  EXPECT_EQ(DurationToJiffies(1), 1u);            // rounds up
  EXPECT_EQ(DurationToJiffies(4 * kMillisecond), 1u);
  EXPECT_EQ(DurationToJiffies(5 * kMillisecond), 2u);
  EXPECT_EQ(DurationToJiffies(kSecond), 250u);
  EXPECT_EQ(TimeToJiffies(4 * kMillisecond), 1u);  // rounds down
  EXPECT_EQ(TimeToJiffies(4 * kMillisecond - 1), 0u);
  EXPECT_EQ(JiffiesToTime(250), kSecond);
}

TEST(JiffiesTest, RoundJiffiesToWholeSecond) {
  EXPECT_EQ(RoundJiffies(0), 0u);
  EXPECT_EQ(RoundJiffies(250), 250u);   // already on a boundary
  EXPECT_EQ(RoundJiffies(251), 500u);
  EXPECT_EQ(RoundJiffies(499), 500u);
  EXPECT_EQ(RoundJiffiesRelative(100, 200), 300u);  // 200+100 -> 500; 500-200
}

// --- timer interface ---

class LinuxKernelTest : public ::testing::Test {
 protected:
  LinuxKernelTest() : kernel_(&sim_, &buffer_, NoJitter()) { kernel_.Boot(); }

  Simulator sim_{1};
  TraceRecorder buffer_;
  LinuxKernel kernel_;
};

TEST_F(LinuxKernelTest, InitTimerLogsInit) {
  LinuxTimer* t = kernel_.InitTimer("test/a", nullptr);
  EXPECT_EQ(CountOps(buffer_.records(), TimerOp::kInit, t->id), 1u);
  EXPECT_FALSE(kernel_.TimerPending(t));
}

TEST_F(LinuxKernelTest, ModTimerFiresAtJiffyBoundary) {
  SimTime fired_at = -1;
  LinuxTimer* t = kernel_.InitTimer("test/a", [&] { fired_at = sim_.Now(); });
  kernel_.ModTimerRelative(t, 10 * kMillisecond);
  sim_.RunUntil(kSecond);
  // 10 ms rounds up to 3 jiffies = 12 ms.
  EXPECT_EQ(fired_at, 12 * kMillisecond);
  EXPECT_EQ(CountOps(buffer_.records(), TimerOp::kExpire, t->id), 1u);
}

TEST_F(LinuxKernelTest, TimerNeverFiresEarly) {
  SimTime fired_at = -1;
  LinuxTimer* t = kernel_.InitTimer("test/a", [&] { fired_at = sim_.Now(); });
  for (SimDuration d = kMillisecond; d < 40 * kMillisecond; d += 3 * kMillisecond) {
    fired_at = -1;
    kernel_.ModTimerRelative(t, d);
    sim_.RunUntil(sim_.Now() + kSecond);
    ASSERT_GE(fired_at, d) << "timeout " << d;
  }
}

TEST_F(LinuxKernelTest, DelTimerCancelsAndLogs) {
  bool fired = false;
  LinuxTimer* t = kernel_.InitTimer("test/a", [&] { fired = true; });
  kernel_.ModTimerRelative(t, 100 * kMillisecond);
  EXPECT_TRUE(kernel_.DelTimer(t));
  sim_.RunUntil(kSecond);
  EXPECT_FALSE(fired);
  EXPECT_EQ(CountOps(buffer_.records(), TimerOp::kCancel, t->id), 1u);
}

TEST_F(LinuxKernelTest, RepeatedDeleteIsNoopButCounted) {
  LinuxTimer* t = kernel_.InitTimer("test/a", nullptr);
  kernel_.ModTimerRelative(t, 100 * kMillisecond);
  EXPECT_TRUE(kernel_.DelTimer(t));
  EXPECT_FALSE(kernel_.DelTimer(t));  // the paper saw these in traces
  EXPECT_FALSE(kernel_.DelTimer(t));
  EXPECT_EQ(kernel_.noop_deletes(), 2u);
  EXPECT_EQ(CountOps(buffer_.records(), TimerOp::kCancel, t->id), 1u);
}

TEST_F(LinuxKernelTest, ModTimerWhilePendingReArmsWithoutCancelRecord) {
  LinuxTimer* t = kernel_.InitTimer("test/a", nullptr);
  kernel_.ModTimerRelative(t, 100 * kMillisecond);
  kernel_.ModTimerRelative(t, 200 * kMillisecond);  // re-arm in place
  EXPECT_EQ(CountOps(buffer_.records(), TimerOp::kSet, t->id), 2u);
  EXPECT_EQ(CountOps(buffer_.records(), TimerOp::kCancel, t->id), 0u);
  sim_.RunUntil(kSecond);
  EXPECT_EQ(CountOps(buffer_.records(), TimerOp::kExpire, t->id), 1u);
}

TEST_F(LinuxKernelTest, ExpiredTimerCanBeReused) {
  int fired = 0;
  LinuxTimer* t = kernel_.InitTimer("test/a", [&] { ++fired; });
  kernel_.ModTimerRelative(t, 10 * kMillisecond);
  sim_.RunUntil(kSecond);
  kernel_.ModTimerRelative(t, 10 * kMillisecond);
  sim_.RunUntil(2 * kSecond);
  EXPECT_EQ(fired, 2);
}

TEST_F(LinuxKernelTest, CallbackMayReArmItself) {
  int fired = 0;
  LinuxTimer* t = kernel_.InitTimer("test/periodic", nullptr);
  t->function = [&] {
    ++fired;
    if (fired < 5) {
      kernel_.ModTimerRelative(t, 100 * kMillisecond);
    }
  };
  kernel_.ModTimerRelative(t, 100 * kMillisecond);
  sim_.RunUntil(10 * kSecond);
  EXPECT_EQ(fired, 5);
}

TEST_F(LinuxKernelTest, RoundJiffiesBatchesExpiry) {
  SimTime fired_at = -1;
  LinuxTimer* t = kernel_.InitTimer("test/a", [&] { fired_at = sim_.Now(); });
  sim_.RunUntil(100 * kMillisecond);  // now mid-second
  kernel_.ModTimerRelative(t, 300 * kMillisecond, /*round=*/true);
  sim_.RunUntil(3 * kSecond);
  // 0.1 s + 0.3 s = 0.4 s, rounded up to the whole second.
  EXPECT_EQ(fired_at, kSecond);
  // The record carries the rounded flag.
  bool saw_rounded = false;
  for (const auto& r : buffer_.records()) {
    if (r.op == TimerOp::kSet && r.timer == t->id) {
      saw_rounded = (r.flags & kFlagRounded) != 0;
    }
  }
  EXPECT_TRUE(saw_rounded);
}

TEST_F(LinuxKernelTest, ObservedTimeoutMatchesJiffyDelta) {
  LinuxTimer* t = kernel_.InitTimer("test/a", nullptr);
  sim_.RunUntil(5 * kMillisecond);
  kernel_.ModTimerRelative(t, 204 * kMillisecond);
  const TraceRecord* set = nullptr;
  for (const auto& r : buffer_.records()) {
    if (r.op == TimerOp::kSet && r.timer == t->id) {
      set = &r;
    }
  }
  ASSERT_NE(set, nullptr);
  // 204 ms = 51 jiffies exactly; expiry-timestamp jiffy delta must be 51.
  EXPECT_EQ(TimeToJiffies(set->expiry) - TimeToJiffies(set->timestamp), 51u);
  EXPECT_NE(set->flags & kFlagJiffyWheel, 0);
}

TEST(LinuxKernelJitterTest, JitterOnlyShrinksObservedValueWithinBound) {
  Simulator sim(7);
  TraceRecorder buffer;
  LinuxKernel::Options options;
  options.max_set_jitter = 2 * kMillisecond;
  options.jitter_probability = 1.0;
  LinuxKernel kernel(&sim, &buffer, options);
  kernel.Boot();
  LinuxTimer* t = kernel.InitTimer("test/a", nullptr);
  for (int i = 0; i < 50; ++i) {
    kernel.ModTimerRelative(t, 204 * kMillisecond);
  }
  for (const auto& r : buffer.records()) {
    if (r.op != TimerOp::kSet) {
      continue;
    }
    ASSERT_LE(r.timeout, 204 * kMillisecond);
    ASSERT_GE(r.timeout, 204 * kMillisecond - 2 * kMillisecond - static_cast<SimDuration>(kJiffy));
  }
}

TEST_F(LinuxKernelTest, PeriodicTickCountsInterrupts) {
  sim_.RunUntil(kSecond);
  // HZ=250: one second of ticking.
  EXPECT_EQ(kernel_.ticks_serviced(), 250u);
  EXPECT_GE(sim_.cpu().timer_interrupts(), 250u);
}

TEST(LinuxDynticksTest, IdleSkipsTicks) {
  Simulator sim(1);
  TraceRecorder buffer;
  LinuxKernel::Options options;
  options.dynticks = true;
  options.max_set_jitter = 0;
  LinuxKernel kernel(&sim, &buffer, options);
  kernel.Boot();
  LinuxTimer* t = kernel.InitTimer("test/slow", nullptr);
  kernel.ModTimerRelative(t, 10 * kSecond);
  sim.RunUntil(10 * kSecond);
  // Without dynticks this would be 2500 ticks.
  EXPECT_LT(kernel.ticks_serviced(), 10u);
  EXPECT_GT(kernel.ticks_skipped(), 2400u);
}

TEST(LinuxDynticksTest, NewNearTimerReprogramsParkedTick) {
  Simulator sim(1);
  TraceRecorder buffer;
  LinuxKernel::Options options;
  options.dynticks = true;
  options.max_set_jitter = 0;
  LinuxKernel kernel(&sim, &buffer, options);
  kernel.Boot();
  LinuxTimer* slow = kernel.InitTimer("test/slow", nullptr);
  kernel.ModTimerRelative(slow, 10 * kSecond);
  sim.RunUntil(kSecond);
  SimTime fired_at = -1;
  LinuxTimer* fast = kernel.InitTimer("test/fast", [&] { fired_at = sim.Now(); });
  kernel.ModTimerRelative(fast, 20 * kMillisecond);
  sim.RunUntil(2 * kSecond);
  EXPECT_EQ(fired_at, kSecond + 20 * kMillisecond);
}

TEST(LinuxDeferrableTest, DeferrableDoesNotWakeIdleCpu) {
  Simulator sim(1);
  TraceRecorder buffer;
  LinuxKernel::Options options;
  options.dynticks = true;
  options.max_set_jitter = 0;
  LinuxKernel kernel(&sim, &buffer, options);
  kernel.Boot();
  bool deferrable_fired = false;
  LinuxTimer* d = kernel.InitTimer("test/deferrable", [&] { deferrable_fired = true; },
                                   kKernelPid, 0, /*deferrable=*/true);
  kernel.ModTimerRelative(d, 100 * kMillisecond);
  LinuxTimer* hard = kernel.InitTimer("test/hard", nullptr);
  kernel.ModTimerRelative(hard, 5 * kSecond);
  sim.RunUntil(4 * kSecond);
  // The deferrable timer alone must not have woken the CPU...
  EXPECT_FALSE(deferrable_fired);
  sim.RunUntil(6 * kSecond);
  // ...but it runs when the hard timer's wakeup services the wheel.
  EXPECT_TRUE(deferrable_fired);
}

// --- hrtimers ---

TEST_F(LinuxKernelTest, HrTimerFiresAtExactNanosecond) {
  SimTime fired_at = -1;
  LinuxHrTimer* t = kernel_.InitHrTimer("test/hr", [&] { fired_at = sim_.Now(); });
  kernel_.StartHrTimer(t, 1234567);
  sim_.RunUntil(kSecond);
  EXPECT_EQ(fired_at, 1234567);
  // hrtimer records are flagged high-res.
  bool flagged = false;
  for (const auto& r : buffer_.records()) {
    if (r.timer == t->id && r.op == TimerOp::kSet) {
      flagged = (r.flags & kFlagHighRes) != 0;
    }
  }
  EXPECT_TRUE(flagged);
}

TEST_F(LinuxKernelTest, HrTimerCancelAndRestart) {
  int fired = 0;
  LinuxHrTimer* t = kernel_.InitHrTimer("test/hr", [&] { ++fired; });
  kernel_.StartHrTimer(t, 10 * kMillisecond);
  EXPECT_TRUE(kernel_.CancelHrTimer(t));
  EXPECT_FALSE(kernel_.CancelHrTimer(t));
  sim_.RunUntil(kSecond);
  EXPECT_EQ(fired, 0);
  kernel_.StartHrTimer(t, 10 * kMillisecond);
  sim_.RunUntil(2 * kSecond);
  EXPECT_EQ(fired, 1);
}

// --- syscalls ---

class LinuxSyscallTest : public ::testing::Test {
 protected:
  LinuxSyscallTest() : kernel_(&sim_, &buffer_, NoJitter()), syscalls_(&kernel_) {
    kernel_.Boot();
    pid_ = sim_.processes().AddProcess("app");
    tid_ = sim_.processes().AddThread(pid_);
  }

  Simulator sim_{1};
  TraceRecorder buffer_;
  LinuxKernel kernel_;
  LinuxSyscalls syscalls_;
  Pid pid_ = 0;
  Tid tid_ = 0;
};

TEST_F(LinuxSyscallTest, SelectTimesOutWithZeroRemaining) {
  SelectChannel* ch = syscalls_.Channel(pid_, tid_, "app/select");
  SimDuration remaining = -1;
  bool timed_out = false;
  ch->Select(100 * kMillisecond, [&](SimDuration r, bool t) {
    remaining = r;
    timed_out = t;
  });
  EXPECT_TRUE(ch->blocked());
  sim_.RunUntil(kSecond);
  EXPECT_TRUE(timed_out);
  EXPECT_EQ(remaining, 0);
  EXPECT_FALSE(ch->blocked());
}

TEST_F(LinuxSyscallTest, WakeWritesBackRemainingTime) {
  SelectChannel* ch = syscalls_.Channel(pid_, tid_, "app/select");
  SimDuration remaining = -1;
  bool timed_out = true;
  ch->Select(100 * kMillisecond, [&](SimDuration r, bool t) {
    remaining = r;
    timed_out = t;
  });
  sim_.ScheduleAt(30 * kMillisecond, [&] { ch->Wake(); });
  sim_.RunUntil(kSecond);
  EXPECT_FALSE(timed_out);
  // The kernel wrote back ~70 ms (the countdown semantics of Figure 4).
  EXPECT_EQ(remaining, 70 * kMillisecond);
}

TEST_F(LinuxSyscallTest, SelectRecordsAreUserFlaggedAndExact) {
  SelectChannel* ch = syscalls_.Channel(pid_, tid_, "app/select");
  ch->Select(FromMilliseconds(499.9), [](SimDuration, bool) {});
  const TraceRecord* set = nullptr;
  for (const auto& r : buffer_.records()) {
    if (r.op == TimerOp::kSet) {
      set = &r;
    }
  }
  ASSERT_NE(set, nullptr);
  EXPECT_TRUE(set->is_user());
  EXPECT_EQ(set->pid, pid_);
  // Syscall values are logged exactly as supplied, no jitter (Section 3.1).
  EXPECT_EQ(set->timeout, FromMilliseconds(499.9));
}

TEST_F(LinuxSyscallTest, InfiniteSelectArmsNoTimer) {
  SelectChannel* ch = syscalls_.Channel(pid_, tid_, "app/select");
  const size_t sets_before = CountOps(buffer_.records(), TimerOp::kSet);
  bool woke = false;
  ch->Select(kNeverTime, [&](SimDuration, bool timed_out) {
    EXPECT_FALSE(timed_out);
    woke = true;
  });
  EXPECT_EQ(CountOps(buffer_.records(), TimerOp::kSet), sets_before);
  sim_.ScheduleAt(kSecond, [&] { ch->Wake(); });
  sim_.RunUntil(2 * kSecond);
  EXPECT_TRUE(woke);
}

TEST_F(LinuxSyscallTest, WakeWithoutBlockFails) {
  SelectChannel* ch = syscalls_.Channel(pid_, tid_, "app/select");
  EXPECT_FALSE(ch->Wake());
}

TEST_F(LinuxSyscallTest, ChannelIsStablePerThread) {
  SelectChannel* a = syscalls_.Channel(pid_, tid_, "app/select");
  SelectChannel* b = syscalls_.Channel(pid_, tid_, "app/select");
  EXPECT_EQ(a, b);
  const Tid other = sim_.processes().AddThread(pid_);
  EXPECT_NE(a, syscalls_.Channel(pid_, other, "app/select"));
}

TEST_F(LinuxSyscallTest, NanosleepCompletesAfterDuration) {
  SimTime done_at = -1;
  syscalls_.Nanosleep(pid_, tid_, "app/sleep", 50 * kMillisecond,
                      [&] { done_at = sim_.Now(); });
  sim_.RunUntil(kSecond);
  EXPECT_GE(done_at, 50 * kMillisecond);
  EXPECT_LE(done_at, 50 * kMillisecond + kJiffy);
}

TEST_F(LinuxSyscallTest, AlarmDeliversAndZeroCancels) {
  int signals = 0;
  syscalls_.Alarm(pid_, "app/alarm", 2 * kSecond, [&] { ++signals; });
  sim_.RunUntil(3 * kSecond);
  EXPECT_EQ(signals, 1);
  syscalls_.Alarm(pid_, "app/alarm", 2 * kSecond, [&] { ++signals; });
  sim_.RunUntil(4 * kSecond);
  syscalls_.Alarm(pid_, "app/alarm", 0, nullptr);  // alarm(0) cancels
  sim_.RunUntil(10 * kSecond);
  EXPECT_EQ(signals, 1);
}

TEST_F(LinuxSyscallTest, PosixIntervalTimerRepeats) {
  int fired = 0;
  PosixTimer* t = syscalls_.TimerCreate(pid_, "app/posix", [&] { ++fired; });
  t->Settime(100 * kMillisecond, 200 * kMillisecond);
  sim_.RunUntil(kSecond + 50 * kMillisecond);
  // Fires at 0.1, 0.3, 0.5, 0.7, 0.9.
  EXPECT_EQ(fired, 5);
  t->Settime(0, 0);  // disarm
  sim_.RunUntil(3 * kSecond);
  EXPECT_EQ(fired, 5);
}

// --- subsystems ---

TEST(LinuxSubsystemsTest, PeriodicTimersProduceExpectedCallsites) {
  Simulator sim(1);
  TraceRecorder buffer;
  LinuxKernel kernel(&sim, &buffer, NoJitter());
  KernelSubsystemsOptions options;
  options.block_io_rate = 2.0;
  KernelSubsystems subsystems(&kernel, options);
  kernel.Boot();
  subsystems.Start();
  sim.RunUntil(30 * kSecond);

  std::set<std::string> seen;
  for (const auto& r : buffer.records()) {
    if (r.op == TimerOp::kSet) {
      seen.insert(kernel.callsites().Name(r.callsite));
    }
  }
  for (const char* expected :
       {"kernel/workqueue_timer", "kernel/workqueue", "mm/writeback", "usb/hc_status_poll",
        "time/clocksource_watchdog", "net/e1000_watchdog", "net/arp_periodic",
        "net/arp_cache_flush", "tty/console_blank", "block/unplug_timeout",
        "ide/command_timeout"}) {
    EXPECT_TRUE(seen.count(expected)) << "missing " << expected;
  }
}

TEST(LinuxSubsystemsTest, UsbPollRunsAt248ms) {
  Simulator sim(1);
  TraceRecorder buffer;
  LinuxKernel kernel(&sim, &buffer, NoJitter());
  KernelSubsystemsOptions options;
  options.lan_event_rate = 0;
  options.console_activity_rate = 0;
  KernelSubsystems subsystems(&kernel, options);
  kernel.Boot();
  subsystems.Start();
  sim.RunUntil(62 * kSecond);
  size_t usb_expiries = 0;
  for (const auto& r : buffer.records()) {
    if (r.op == TimerOp::kExpire &&
        kernel.callsites().Name(r.callsite) == "usb/hc_status_poll") {
      ++usb_expiries;
    }
  }
  // 62 s / 0.248 s = 250 expiries.
  EXPECT_NEAR(static_cast<double>(usb_expiries), 250.0, 2.0);
}

TEST(LinuxSubsystemsTest, BlockIoArmsAndCancelsUnplugTimer) {
  Simulator sim(1);
  TraceRecorder buffer;
  LinuxKernel kernel(&sim, &buffer, NoJitter());
  KernelSubsystemsOptions options;
  options.workqueue_1s = options.workqueue_2s = options.writeback_5s = false;
  options.usb_poll = options.clocksource_watchdog = options.e1000_watchdog = false;
  options.arp = options.console_blank = false;
  options.lan_event_rate = 0;
  KernelSubsystems subsystems(&kernel, options);
  kernel.Boot();
  subsystems.Start();
  for (int i = 0; i < 20; ++i) {
    // Mid-jiffy submission: the 1-jiffy unplug timeout then races the
    // queue-unplug completion, as it does on a live system.
    sim.ScheduleAt(i * kSecond + kMillisecond, [&] { subsystems.SubmitBlockIo(); });
  }
  sim.RunUntil(30 * kSecond);
  size_t sets = 0;
  size_t cancels = 0;
  for (const auto& r : buffer.records()) {
    if (kernel.callsites().Name(r.callsite) == "block/unplug_timeout") {
      sets += r.op == TimerOp::kSet ? 1 : 0;
      cancels += r.op == TimerOp::kCancel ? 1 : 0;
    }
  }
  EXPECT_EQ(sets, 20u);
  EXPECT_GT(cancels, 0u);
}

}  // namespace
}  // namespace tempo

namespace tempo {
namespace {

TEST(TimerStatsTest, CountsArmingOperationsPerOrigin) {
  Simulator sim(1);
  TimerStatsCollector stats;
  TraceRecorder buffer;
  TeeSink tee;
  tee.Add(&buffer);
  tee.Add(&stats);
  LinuxKernel::Options opts;
  opts.max_set_jitter = 0;
  LinuxKernel kernel(&sim, &tee, opts);
  kernel.Boot();
  stats.Enable(sim.Now());

  LinuxTimer* fast = kernel.InitTimer("net/busy", nullptr);
  fast->function = [&] { kernel.ModTimerRelative(fast, 100 * kMillisecond); };
  kernel.ModTimerRelative(fast, 100 * kMillisecond);
  LinuxTimer* slow = kernel.InitTimer("mm/slow", nullptr);
  slow->function = [&] { kernel.ModTimerRelative(slow, kSecond); };
  kernel.ModTimerRelative(slow, kSecond);
  sim.RunUntil(10 * kSecond);
  stats.Disable(sim.Now());

  const auto rows = stats.Rows();
  ASSERT_EQ(rows.size(), 2u);
  // Sorted by count, descending: the 100 ms timer first.
  EXPECT_EQ(kernel.callsites().Name(rows[0].callsite), "net/busy");
  EXPECT_NEAR(static_cast<double>(rows[0].count), 100.0, 2.0);
  EXPECT_NEAR(static_cast<double>(rows[1].count), 10.0, 1.0);
  // The classic report format mentions origin and totals.
  const std::string report = stats.Report(kernel.callsites());
  EXPECT_NE(report.find("net/busy"), std::string::npos);
  EXPECT_NE(report.find("Sample period"), std::string::npos);
  // And the full trace still reached the study's buffer through the tee.
  EXPECT_GT(buffer.records().size(), 200u);
}

TEST(TimerStatsTest, DisabledCollectorCountsNothing) {
  Simulator sim(1);
  TimerStatsCollector stats;
  LinuxKernel kernel(&sim, &stats);
  kernel.Boot();
  LinuxTimer* t = kernel.InitTimer("a/b", nullptr);
  kernel.ModTimerRelative(t, kSecond);
  sim.RunUntil(2 * kSecond);
  EXPECT_EQ(stats.total_events(), 0u);
  EXPECT_TRUE(stats.Rows().empty());
}

TEST(TimerStatsTest, CannotObserveDurationsOrCancellations) {
  // The paper's point: timer_stats sees arming frequency only. A timer
  // that is always canceled instantly and one that always expires look
  // identical in the report.
  Simulator sim(1);
  TimerStatsCollector stats;
  LinuxKernel kernel(&sim, &stats);
  kernel.Boot();
  stats.Enable(sim.Now());
  LinuxTimer* canceled = kernel.InitTimer("x/canceled", nullptr);
  LinuxTimer* expires = kernel.InitTimer("x/expires", nullptr);
  for (int i = 0; i < 10; ++i) {
    sim.ScheduleAt(i * kSecond, [&] {
      kernel.ModTimerRelative(canceled, 30 * kSecond);
      kernel.DelTimer(canceled);
      kernel.ModTimerRelative(expires, 100 * kMillisecond);
    });
  }
  sim.RunUntil(kMinute);
  const auto rows = stats.Rows();
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].count, rows[1].count);  // indistinguishable
}

}  // namespace
}  // namespace tempo

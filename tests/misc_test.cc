// Additional API-surface tests: canonical timeouts, scatter options,
// rate columns, hrtimer/dynticks interplay, NT timers, and workload
// run-harness contracts.

#include <gtest/gtest.h>

#include "src/analysis/lifetimes.h"
#include "src/analysis/render.h"
#include "src/analysis/scatter.h"
#include "src/osvista/userapi.h"
#include "src/workloads/linux_workloads.h"
#include "src/workloads/vista_workloads.h"

namespace tempo {
namespace {

TEST(CanonicalTimeoutTest, WheelSetsUseJiffyDelta) {
  TraceRecord r;
  r.op = TimerOp::kSet;
  r.flags = kFlagJiffyWheel;
  r.timestamp = 10 * kMillisecond;  // mid-jiffy
  r.timeout = 199 * kMillisecond;   // jittered observation
  r.expiry = JiffiesToTime(TimeToJiffies(r.timestamp) + 51);
  EXPECT_EQ(CanonicalTimeout(r), 51 * kJiffy);
}

TEST(CanonicalTimeoutTest, UserAndHighResKeepExactValues) {
  TraceRecord user;
  user.op = TimerOp::kSet;
  user.flags = kFlagUser | kFlagJiffyWheel;
  user.timeout = FromMilliseconds(499.9);
  user.expiry = kSecond;
  EXPECT_EQ(CanonicalTimeout(user), FromMilliseconds(499.9));

  TraceRecord hr;
  hr.op = TimerOp::kSet;
  hr.flags = kFlagHighRes;
  hr.timeout = 1234567;
  hr.expiry = 7654321;
  EXPECT_EQ(CanonicalTimeout(hr), 1234567);
}

TEST(ScatterOptionsTest, IncludeResetsCountsReArms) {
  std::vector<TraceRecord> records;
  TraceRecord set;
  set.timer = 1;
  set.op = TimerOp::kSet;
  set.timeout = kSecond;
  set.expiry = kSecond;
  records.push_back(set);
  TraceRecord reset = set;
  reset.timestamp = 500 * kMillisecond;
  reset.expiry = reset.timestamp + kSecond;
  records.push_back(reset);  // re-arm while pending
  TraceRecord expire = reset;
  expire.timestamp = reset.timestamp + kSecond;
  expire.op = TimerOp::kExpire;
  records.push_back(expire);

  ScatterOptions with;
  with.include_resets = true;
  ScatterPass without_resets;
  ScatterPass with_resets(with);
  without_resets.Accumulate(records);
  with_resets.Accumulate(records);
  uint64_t n_without = 0;
  uint64_t n_with = 0;
  for (const auto& p : without_resets.Result()) {
    n_without += p.count;
  }
  for (const auto& p : with_resets.Result()) {
    n_with += p.count;
  }
  EXPECT_EQ(n_without, 1u);  // only the expiry episode
  EXPECT_EQ(n_with, 2u);     // the reset counts as a cancellation
}

TEST(RenderColumnsTest, RateColumnsEmitOneSeriesPerLabel) {
  RateSeries a{"Kernel", {1, 2, 3}};
  RateSeries b{"Outlook", {7, 0, 9}};
  const std::string out = RateColumns({a, b}, kSecond);
  EXPECT_NE(out.find("# Kernel"), std::string::npos);
  EXPECT_NE(out.find("# Outlook"), std::string::npos);
  EXPECT_NE(out.find("0 7"), std::string::npos);  // t=0s value of Outlook
}

TEST(HrTimerDynticksTest, HrTimerFiresPreciselyUnderDynticks) {
  // hrtimers run from their own one-shot event: suppressing the periodic
  // tick must not delay them.
  Simulator sim(1);
  TraceRecorder buffer;
  LinuxKernel::Options options;
  options.dynticks = true;
  options.max_set_jitter = 0;
  LinuxKernel kernel(&sim, &buffer, options);
  kernel.Boot();
  SimTime fired_at = -1;
  LinuxHrTimer* t = kernel.InitHrTimer("test/hr", [&] { fired_at = sim.Now(); });
  kernel.StartHrTimer(t, 7777777);  // 7.777777 ms, not a jiffy multiple
  sim.RunUntil(kSecond);
  EXPECT_EQ(fired_at, 7777777);
}

TEST(HrTimerDynticksTest, ReprogramOnEarlierHrTimer) {
  Simulator sim(1);
  TraceRecorder buffer;
  LinuxKernel kernel(&sim, &buffer);
  kernel.Boot();
  std::vector<SimTime> fires;
  LinuxHrTimer* late = kernel.InitHrTimer("test/late", [&] { fires.push_back(sim.Now()); });
  LinuxHrTimer* early = kernel.InitHrTimer("test/early", [&] { fires.push_back(sim.Now()); });
  kernel.StartHrTimer(late, 100 * kMillisecond);
  kernel.StartHrTimer(early, 10 * kMillisecond);  // must pull the event forward
  sim.RunUntil(kSecond);
  ASSERT_EQ(fires.size(), 2u);
  EXPECT_EQ(fires[0], 10 * kMillisecond);
  EXPECT_EQ(fires[1], 100 * kMillisecond);
}

TEST(NtTimerTest, OneShotDoesNotRepeat) {
  Simulator sim(1);
  TraceRecorder session("etw", TraceRecorder::kUnbounded);
  VistaKernel kernel(&sim, &session);
  VistaUserApi api(&kernel);
  kernel.Boot();
  int fired = 0;
  NtTimer* t = api.NtCreateTimer(1, 1, "app/nt", [&] { ++fired; });
  t->Set(50 * kMillisecond);  // no period
  sim.RunUntil(kSecond);
  EXPECT_EQ(fired, 1);
}

TEST(NtTimerTest, ReSetBeforeExpiryDefers) {
  Simulator sim(1);
  TraceRecorder session("etw", TraceRecorder::kUnbounded);
  VistaKernel kernel(&sim, &session);
  VistaUserApi api(&kernel);
  kernel.Boot();
  SimTime fired_at = -1;
  NtTimer* t = api.NtCreateTimer(1, 1, "app/nt", [&] { fired_at = sim.Now(); });
  t->Set(100 * kMillisecond);
  sim.ScheduleAt(50 * kMillisecond, [&] { t->Set(100 * kMillisecond); });
  sim.RunUntil(kSecond);
  EXPECT_GE(fired_at, 150 * kMillisecond);
}

TEST(WorkloadHarnessTest, AllRunnersProduceLabelledColumnOrder) {
  WorkloadOptions options;
  options.duration = 30 * kSecond;
  const auto linux_runs = RunAllLinuxWorkloads(options);
  ASSERT_EQ(linux_runs.size(), 4u);
  EXPECT_EQ(linux_runs[0].label, "Idle");
  EXPECT_EQ(linux_runs[1].label, "Skype");
  EXPECT_EQ(linux_runs[2].label, "Firefox");
  EXPECT_EQ(linux_runs[3].label, "Webserver");
  const auto vista_runs = RunAllVistaWorkloads(options);
  ASSERT_EQ(vista_runs.size(), 4u);
  EXPECT_EQ(vista_runs[0].label, "Idle");
  for (const auto& run : vista_runs) {
    EXPECT_NE(run.vista_kernel, nullptr);
    EXPECT_EQ(run.linux_kernel, nullptr);
  }
}

TEST(WorkloadHarnessTest, PidsMapCoversNamedProcesses) {
  WorkloadOptions options;
  options.duration = 10 * kSecond;
  TraceRun idle = RunLinuxIdle(options);
  for (const char* name : {"Xorg", "icewm", "init", "cron"}) {
    EXPECT_TRUE(idle.pids.count(name)) << name;
  }
  TraceRun desktop = RunVistaDesktop(options);
  for (const char* name : {"outlook.exe", "iexplore.exe", "csrss.exe"}) {
    EXPECT_TRUE(desktop.pids.count(name)) << name;
  }
}

TEST(WorkloadHarnessTest, IntensityScalesActivity) {
  WorkloadOptions low;
  low.duration = kMinute;
  low.intensity = 0.25;
  WorkloadOptions high = low;
  high.intensity = 2.0;
  TraceRun quiet = RunLinuxIdle(low);
  TraceRun busy = RunLinuxIdle(high);
  EXPECT_GT(busy.records.size(), quiet.records.size());
}

}  // namespace
}  // namespace tempo

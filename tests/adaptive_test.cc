// Tests for the Section-5 proposal library: streaming distributions,
// adaptive timeouts, use-case interfaces, slack batching, and the timer
// dependency graph.

#include <gtest/gtest.h>

#include "src/adaptive/adaptive_timeout.h"
#include "src/adaptive/dependency.h"
#include "src/adaptive/distribution.h"
#include "src/adaptive/interfaces.h"
#include "src/adaptive/slack.h"
#include "src/adaptive/timer_service.h"
#include "src/sim/random.h"
#include "src/sim/simulator.h"
#include "src/trace/buffer.h"

namespace tempo {
namespace {

// --- StreamingDistribution ---

TEST(DistributionTest, EmptyQuantileIsZero) {
  StreamingDistribution d;
  EXPECT_EQ(d.Quantile(0.5), 0);
  EXPECT_EQ(d.count(), 0u);
}

TEST(DistributionTest, SingleValueQuantile) {
  StreamingDistribution d;
  d.Add(100 * kMillisecond);
  const SimDuration q = d.Quantile(0.99);
  // Bucket resolution: within ~25% of the true value.
  EXPECT_GE(q, 100 * kMillisecond);
  EXPECT_LE(q, 130 * kMillisecond);
}

TEST(DistributionTest, QuantilesAreMonotone) {
  StreamingDistribution d;
  Rng rng(5);
  for (int i = 0; i < 10000; ++i) {
    d.Add(static_cast<SimDuration>(rng.Exponential(0.05) * kSecond));
  }
  SimDuration prev = 0;
  for (double q = 0.05; q <= 1.0; q += 0.05) {
    const SimDuration v = d.Quantile(q);
    EXPECT_GE(v, prev);
    prev = v;
  }
}

TEST(DistributionTest, QuantileSeparatesTwoModes) {
  StreamingDistribution d;
  for (int i = 0; i < 900; ++i) {
    d.Add(kMillisecond);
  }
  for (int i = 0; i < 100; ++i) {
    d.Add(kSecond);
  }
  EXPECT_LT(d.Quantile(0.5), 10 * kMillisecond);
  EXPECT_GT(d.Quantile(0.95), 500 * kMillisecond);
}

TEST(DistributionTest, DecayShiftsWeightToNewRegime) {
  StreamingDistribution d;
  for (int i = 0; i < 1000; ++i) {
    d.Add(kMillisecond);
  }
  d.Decay(0.01);
  for (int i = 0; i < 100; ++i) {
    d.Add(kSecond);
  }
  EXPECT_GT(d.Quantile(0.5), 500 * kMillisecond);
}

TEST(DistributionTest, ExtremeValuesClampToBucketRange) {
  StreamingDistribution d;
  d.Add(-5);
  d.Add(0);
  d.Add(INT64_MAX / 2);
  EXPECT_EQ(d.count(), 3u);
  EXPECT_GT(d.Quantile(1.0), 0);
}

// --- AdaptiveTimeout ---

TEST(AdaptiveTimeoutTest, UsesInitialDuringWarmup) {
  AdaptiveTimeout timeout;
  EXPECT_EQ(timeout.Current(), 30 * kSecond);  // the classic constant
  timeout.RecordSuccess(kMillisecond);
  EXPECT_FALSE(timeout.warmed_up());
  EXPECT_EQ(timeout.Current(), 30 * kSecond);
}

TEST(AdaptiveTimeoutTest, LearnsTightBoundFromFastCompletions) {
  AdaptiveTimeout timeout;
  for (int i = 0; i < 100; ++i) {
    timeout.RecordSuccess(kMillisecond);
  }
  EXPECT_TRUE(timeout.warmed_up());
  // 99th percentile * safety factor of a 1 ms workload: a few ms, not 30 s.
  EXPECT_LT(timeout.Current(), 20 * kMillisecond);
  EXPECT_GE(timeout.Current(), kMillisecond);
}

TEST(AdaptiveTimeoutTest, TimeoutTriggersBackoff) {
  AdaptiveTimeout timeout;
  for (int i = 0; i < 100; ++i) {
    timeout.RecordSuccess(kMillisecond);
  }
  const SimDuration base = timeout.Current();
  timeout.RecordTimeout();
  EXPECT_EQ(timeout.Current(), 2 * base);
  timeout.RecordTimeout();
  EXPECT_EQ(timeout.Current(), 4 * base);
  timeout.RecordSuccess(kMillisecond);  // success resets backoff
  EXPECT_LE(timeout.Current(), base + base / 4);
}

TEST(AdaptiveTimeoutTest, LevelShiftRelearnsQuickly) {
  // The travelling-user scenario (Section 5.1): LAN latencies shift to WAN.
  AdaptiveTimeout::Options options;
  options.warmup_samples = 10;
  AdaptiveTimeout timeout(options);
  for (int i = 0; i < 200; ++i) {
    timeout.RecordSuccess(kMillisecond);
  }
  const SimDuration lan_bound = timeout.Current();
  for (int i = 0; i < 30; ++i) {
    timeout.RecordSuccess(130 * kMillisecond);  // WAN now
  }
  EXPECT_GE(timeout.level_shifts(), 1u);
  EXPECT_GT(timeout.Current(), lan_bound);
  EXPECT_GE(timeout.Current(), 130 * kMillisecond);
}

TEST(AdaptiveTimeoutTest, RespectsMinMaxClamps) {
  AdaptiveTimeout::Options options;
  options.min_timeout = 50 * kMillisecond;
  options.max_timeout = kSecond;
  AdaptiveTimeout timeout(options);
  for (int i = 0; i < 100; ++i) {
    timeout.RecordSuccess(kMicrosecond);
  }
  EXPECT_EQ(timeout.Current(), 50 * kMillisecond);
  for (int i = 0; i < 30; ++i) {
    timeout.RecordTimeout();
  }
  EXPECT_EQ(timeout.Current(), kSecond);
}

// --- TimerSurface ---

TEST(SimTimerServiceTest, ArmFiresAndCancelWorks) {
  Simulator sim;
  SimTimerService service(&sim);
  bool fired = false;
  service.Arm(kSecond, [&] { fired = true; });
  const ServiceTimerId cancel_me = service.Arm(2 * kSecond, [&] { FAIL(); });
  EXPECT_TRUE(service.Cancel(cancel_me));
  EXPECT_FALSE(service.Cancel(cancel_me));
  sim.RunUntil(3 * kSecond);
  EXPECT_TRUE(fired);
  EXPECT_EQ(service.arms(), 2u);
}

TEST(LinuxTimerServiceTest, ArmsTracedKernelTimers) {
  Simulator sim;
  TraceRecorder buffer;
  LinuxKernel kernel(&sim, &buffer);
  kernel.Boot();
  LinuxTimerService service(&kernel, "adaptive/test", 3);
  bool fired = false;
  service.Arm(100 * kMillisecond, [&] { fired = true; });
  sim.RunUntil(kSecond);
  EXPECT_TRUE(fired);
  bool saw_set = false;
  for (const auto& r : buffer.records()) {
    if (r.op == TimerOp::kSet) {
      saw_set = true;
      EXPECT_EQ(kernel.callsites().Name(r.callsite), "adaptive/test");
      EXPECT_EQ(r.pid, 3);
    }
  }
  EXPECT_TRUE(saw_set);
}

TEST(LinuxTimerServiceTest, SlotsAreReusedAcrossArms) {
  Simulator sim;
  TraceRecorder buffer;
  LinuxKernel kernel(&sim, &buffer);
  kernel.Boot();
  LinuxTimerService service(&kernel, "adaptive/test", 3);
  for (int i = 0; i < 10; ++i) {
    service.Arm(10 * kMillisecond, nullptr);
    sim.RunUntil(sim.Now() + 100 * kMillisecond);
  }
  std::set<TimerId> ids;
  for (const auto& r : buffer.records()) {
    ids.insert(r.timer);
  }
  EXPECT_EQ(ids.size(), 1u);  // one reused timer struct
}

// --- PeriodicTicker ---

TEST(PeriodicTickerTest, DriftFreeOverManyTicks) {
  Simulator sim;
  SimTimerService service(&sim);
  PeriodicTicker ticker(&service, 100 * kMillisecond, [] {});
  ticker.Start();
  sim.RunUntil(100 * kSecond);
  EXPECT_EQ(ticker.ticks(), 1000u);
  EXPECT_EQ(ticker.max_drift(), 0);
  ticker.Stop();
}

TEST(PeriodicTickerTest, StopHaltsTicks) {
  Simulator sim;
  SimTimerService service(&sim);
  int count = 0;
  PeriodicTicker ticker(&service, 100 * kMillisecond, [&] { ++count; });
  ticker.Start();
  sim.RunUntil(kSecond);
  ticker.Stop();
  const int at_stop = count;
  sim.RunUntil(10 * kSecond);
  EXPECT_EQ(count, at_stop);
}

// --- Watchdog ---

TEST(WatchdogTest, ExpiresWithoutKick) {
  Simulator sim;
  SimTimerService service(&sim);
  bool expired = false;
  Watchdog dog(&service, kSecond, [&] { expired = true; });
  dog.Kick();
  sim.RunUntil(2 * kSecond);
  EXPECT_TRUE(expired);
  EXPECT_EQ(dog.expiries(), 1u);
}

TEST(WatchdogTest, KicksDeferExpiry) {
  Simulator sim;
  SimTimerService service(&sim);
  bool expired = false;
  Watchdog dog(&service, kSecond, [&] { expired = true; });
  dog.Kick();
  for (int i = 1; i <= 20; ++i) {
    sim.ScheduleAt(i * 500 * kMillisecond, [&] { dog.Kick(); });
  }
  sim.RunUntil(10 * kSecond);
  EXPECT_FALSE(expired);
  sim.RunUntil(12 * kSecond);
  EXPECT_TRUE(expired);  // kicks stopped at 10 s
}

// --- ScopedTimeout ---

TEST(ScopedTimeoutTest, CancelsOnDestruction) {
  Simulator sim;
  SimTimerService service(&sim);
  bool fired = false;
  {
    ScopedTimeout guard(&service, kSecond, [&] { fired = true; });
    sim.RunUntil(500 * kMillisecond);
  }  // destructor cancels
  sim.RunUntil(5 * kSecond);
  EXPECT_FALSE(fired);
}

TEST(ScopedTimeoutTest, FiresIfScopeOutlivesTimeout) {
  Simulator sim;
  SimTimerService service(&sim);
  bool fired = false;
  {
    ScopedTimeout guard(&service, kSecond, [&] { fired = true; });
    sim.RunUntil(2 * kSecond);
    EXPECT_TRUE(guard.expired());
  }
  EXPECT_TRUE(fired);
}

// --- DeferredAction ---

TEST(DeferredActionTest, FiresAfterIdlePeriod) {
  Simulator sim;
  SimTimerService service(&sim);
  DeferredAction lazy(&service, kSecond, [] {});
  lazy.Touch();
  sim.RunUntil(10 * kSecond);
  EXPECT_EQ(lazy.fired(), 1u);
}

TEST(DeferredActionTest, ActivityPostponesAction) {
  Simulator sim;
  SimTimerService service(&sim);
  SimTime fired_at = -1;
  DeferredAction lazy(&service, kSecond, [&] { fired_at = sim.Now(); });
  // Touches every 400 ms until t=4 s; idle after that.
  for (int i = 0; i <= 10; ++i) {
    sim.ScheduleAt(i * 400 * kMillisecond, [&] { lazy.Touch(); });
  }
  sim.RunUntil(20 * kSecond);
  EXPECT_EQ(fired_at, 5 * kSecond);  // last touch at 4 s + 1 s idle
}

TEST(DeferredActionTest, TouchesAreCheaperThanTimerArms) {
  // The whole point versus the raw KeSetTimer-per-touch idiom: N touches
  // cost O(elapsed/idle) timer operations, not O(N).
  Simulator sim;
  SimTimerService service(&sim);
  DeferredAction lazy(&service, kSecond, [] {});
  for (int i = 0; i < 1000; ++i) {
    sim.ScheduleAt(i * kMillisecond, [&] { lazy.Touch(); });
  }
  sim.RunUntil(10 * kSecond);
  EXPECT_EQ(lazy.fired(), 1u);
  EXPECT_LE(lazy.arms(), 4u);
}

// --- TimeoutStack ---

TEST(TimeoutStackTest, InnerLongerTimeoutIsElided) {
  Simulator sim;
  SimTimerService service(&sim);
  TimeoutStack stack(&service);
  const uint64_t outer = stack.Push(kSecond, [] {});
  const uint64_t inner = stack.Push(5 * kSecond, [] { FAIL() << "elided"; });
  EXPECT_EQ(stack.armed_count(), 1u);
  EXPECT_EQ(stack.elided_count(), 1u);
  stack.Pop(inner);
  stack.Pop(outer);
  sim.RunUntil(10 * kSecond);
}

TEST(TimeoutStackTest, InnerShorterTimeoutIsArmed) {
  Simulator sim;
  SimTimerService service(&sim);
  TimeoutStack stack(&service);
  bool inner_fired = false;
  stack.Push(10 * kSecond, [] {});
  stack.Push(kSecond, [&] { inner_fired = true; });
  EXPECT_EQ(stack.armed_count(), 2u);
  sim.RunUntil(2 * kSecond);
  EXPECT_TRUE(inner_fired);
}

TEST(TimeoutStackTest, PopCancelsArmedTimeout) {
  Simulator sim;
  SimTimerService service(&sim);
  TimeoutStack stack(&service);
  const uint64_t token = stack.Push(kSecond, [] { FAIL(); });
  stack.Pop(token);
  sim.RunUntil(5 * kSecond);
}

// --- BatchingTimerService / SlackTicker ---

TEST(BatchingTest, OverlappingWindowsShareOneWakeup) {
  Simulator sim;
  SimTimerService base(&sim);
  BatchingTimerService batching(&base);
  int fired = 0;
  // Ten requests whose windows all contain t=10 s.
  for (int i = 0; i < 10; ++i) {
    batching.Arm(TimeSpec::Window((5 + i / 2.0) * kSecond, (10 + i) * kSecond),
                 [&] { ++fired; });
  }
  sim.RunUntil(kMinute);
  EXPECT_EQ(fired, 10);
  EXPECT_EQ(batching.requests(), 10u);
  EXPECT_EQ(batching.wakeups_scheduled(), 1u);  // one underlying wakeup
}

TEST(BatchingTest, DisjointWindowsGetSeparateWakeups) {
  Simulator sim;
  SimTimerService base(&sim);
  BatchingTimerService batching(&base);
  int fired = 0;
  batching.Arm(TimeSpec::Window(kSecond, 2 * kSecond), [&] { ++fired; });
  batching.Arm(TimeSpec::Window(10 * kSecond, 11 * kSecond), [&] { ++fired; });
  sim.RunUntil(kMinute);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(batching.wakeups_scheduled(), 2u);
}

TEST(BatchingTest, FiresWithinRequestedWindow) {
  Simulator sim;
  SimTimerService base(&sim);
  BatchingTimerService batching(&base);
  SimTime fired_at = -1;
  batching.Arm(TimeSpec::Window(3 * kSecond, 7 * kSecond), [&] { fired_at = sim.Now(); });
  sim.RunUntil(kMinute);
  EXPECT_GE(fired_at, 3 * kSecond);
  EXPECT_LE(fired_at, 7 * kSecond);
}

TEST(BatchingTest, CancelRemovesMemberAndLastCancelKillsWakeup) {
  Simulator sim;
  SimTimerService base(&sim);
  BatchingTimerService batching(&base);
  int fired = 0;
  const ServiceTimerId a = batching.Arm(TimeSpec::Window(kSecond, 2 * kSecond), [&] { ++fired; });
  const ServiceTimerId b = batching.Arm(TimeSpec::Window(kSecond, 2 * kSecond), [&] { ++fired; });
  EXPECT_TRUE(batching.Cancel(a));
  EXPECT_FALSE(batching.Cancel(a));
  sim.RunUntil(10 * kSecond);
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(batching.Cancel(b) == false);  // already fired
}

TEST(BatchingTest, ExactSpecStillFires) {
  Simulator sim;
  SimTimerService base(&sim);
  BatchingTimerService batching(&base);
  SimTime fired_at = -1;
  batching.Arm(TimeSpec::Exact(kSecond), [&] { fired_at = sim.Now(); });
  sim.RunUntil(10 * kSecond);
  EXPECT_EQ(fired_at, kSecond);
}

TEST(TimeSpecTest, AfterDeviationsBuildsStatisticalWindow) {
  // "After we have exceeded 100 standard deviations above the mean
  //  round-trip time to this host" (Section 5.3).
  const TimeSpec spec = AfterDeviations(130 * kMillisecond, kMillisecond, 100.0,
                                        /*slack=*/50 * kMillisecond);
  EXPECT_EQ(spec.earliest, 230 * kMillisecond);
  EXPECT_EQ(spec.latest, 280 * kMillisecond);

  // And it arms like any other window.
  Simulator sim;
  SimTimerService base(&sim);
  BatchingTimerService batching(&base);
  SimTime fired_at = -1;
  batching.Arm(spec, [&] { fired_at = sim.Now(); });
  sim.RunUntil(kSecond);
  EXPECT_GE(fired_at, spec.earliest);
  EXPECT_LE(fired_at, spec.latest);
}

TEST(SlackTickerTest, MaintainsAverageFrequencyDespiteSlack) {
  Simulator sim;
  SimTimerService base(&sim);
  BatchingTimerService batching(&base);
  SlackTicker ticker(&batching, 5 * kSecond, 2 * kSecond, [] {});
  ticker.Start();
  sim.RunUntil(10 * kMinute);
  // "Every 5 minutes, on average over an hour": mean period within slack.
  EXPECT_GE(ticker.ticks(), 100u);
  EXPECT_NEAR(ToSeconds(ticker.average_period()), 5.0, 1.0);
  ticker.Stop();
}

TEST(SlackTickerTest, SlackTickersBatchTogether) {
  Simulator sim;
  SimTimerService base(&sim);
  BatchingTimerService batching(&base);
  std::vector<std::unique_ptr<SlackTicker>> tickers;
  for (int i = 0; i < 8; ++i) {
    tickers.push_back(std::make_unique<SlackTicker>(&batching, 10 * kSecond, 8 * kSecond,
                                                    [] {}));
    tickers.back()->Start();
  }
  sim.RunUntil(10 * kMinute);
  // Eight tickers at the same period with generous slack should coalesce
  // far below 8x the wakeups of one.
  const uint64_t wakeups = batching.wakeups_scheduled();
  uint64_t ticks = 0;
  for (const auto& t : tickers) {
    ticks += t->ticks();
  }
  EXPECT_GT(ticks, 8 * 50u);
  EXPECT_LT(wakeups, ticks / 3);
  for (auto& t : tickers) {
    t->Stop();
  }
}

// --- TimerDependencyGraph ---

TEST(DependencyTest, MaxWinsMarksInnerRemovable) {
  TimerDependencyGraph graph;
  const uint32_t outer = graph.AddTimer("outer", 30 * kSecond);
  const uint32_t inner = graph.AddTimer("inner", 5 * kSecond);
  EXPECT_TRUE(graph.Relate(outer, inner, TimerRelation::kOverlapMaxWins));
  const auto analysis = graph.Analyse();
  ASSERT_EQ(analysis.removable.size(), 1u);
  EXPECT_EQ(analysis.removable[0], inner);
}

TEST(DependencyTest, MinWinsMarksOuterRemovable) {
  TimerDependencyGraph graph;
  const uint32_t outer = graph.AddTimer("outer", 30 * kSecond);
  const uint32_t inner = graph.AddTimer("inner", 5 * kSecond);
  EXPECT_TRUE(graph.Relate(outer, inner, TimerRelation::kOverlapMinWins));
  const auto analysis = graph.Analyse();
  ASSERT_EQ(analysis.removable.size(), 1u);
  EXPECT_EQ(analysis.removable[0], outer);
}

TEST(DependencyTest, CancelTogetherFormsGroups) {
  TimerDependencyGraph graph;
  const uint32_t keepalive = graph.AddTimer("keepalive", 7200 * kSecond);
  const uint32_t rtx = graph.AddTimer("retransmit", kSecond);
  const uint32_t unrelated = graph.AddTimer("other", kSecond);
  EXPECT_TRUE(graph.Relate(keepalive, rtx, TimerRelation::kOverlapCancelTogether));
  const auto analysis = graph.Analyse();
  ASSERT_EQ(analysis.cancel_groups.size(), 1u);
  EXPECT_EQ(analysis.cancel_groups[0].size(), 2u);
  (void)unrelated;
}

TEST(DependencyTest, InvalidRelationsRejected) {
  TimerDependencyGraph graph;
  const uint32_t small = graph.AddTimer("small", kSecond);
  const uint32_t big = graph.AddTimer("big", 10 * kSecond);
  // Overlap requires t1's timeout >= t2's.
  EXPECT_FALSE(graph.Relate(small, big, TimerRelation::kOverlapMaxWins));
  EXPECT_FALSE(graph.Relate(small, small, TimerRelation::kOverlapMaxWins));
  EXPECT_FALSE(graph.Relate(small, 99, TimerRelation::kDependsOn));
  // Self-dependency (periodic) is allowed.
  EXPECT_TRUE(graph.Relate(small, small, TimerRelation::kDependsOn));
}

TEST(DependencyTest, OverlapRewriteReducesConcurrency) {
  // A 3-deep nested timeout chain: naive arming holds 3 concurrent timers,
  // rewriting to a dependency chain holds 1 (Section 5.2).
  TimerDependencyGraph graph;
  const uint32_t gui = graph.AddTimer("gui", 60 * kSecond);
  const uint32_t rpc = graph.AddTimer("rpc", 10 * kSecond);
  const uint32_t tcp = graph.AddTimer("tcp", kSecond);
  EXPECT_TRUE(graph.Relate(gui, rpc, TimerRelation::kOverlapMaxWins));
  EXPECT_TRUE(graph.Relate(rpc, tcp, TimerRelation::kOverlapMaxWins));
  const auto analysis = graph.Analyse();
  EXPECT_EQ(analysis.concurrent_before, 3u);
  EXPECT_EQ(analysis.concurrent_after, 1u);
}

}  // namespace
}  // namespace tempo

namespace tempo {
namespace {

TEST(DelayTimerTest, AfterFiresOnceAndCancelWorks) {
  Simulator sim;
  SimTimerService service(&sim);
  DelayTimer delay(&service);
  int fired = 0;
  delay.After(kSecond, [&] { ++fired; });
  const ServiceTimerId id = delay.After(2 * kSecond, [&] { ++fired; });
  EXPECT_TRUE(delay.Cancel(id));
  sim.RunUntil(kMinute);
  EXPECT_EQ(fired, 1);
}

TEST(PeriodicTickerTest, SlackShiftsButKeepsCount) {
  Simulator sim;
  SimTimerService service(&sim);
  PeriodicTicker ticker(&service, kSecond, [] {}, /*slack=*/200 * kMillisecond);
  ticker.Start();
  sim.RunUntil(kMinute + 500 * kMillisecond);
  // Slack delays individual ticks but the drift-free schedule holds the
  // long-run count.
  EXPECT_GE(ticker.ticks(), 59u);
  EXPECT_LE(ticker.ticks(), 61u);
  EXPECT_LE(ticker.max_drift(), 200 * kMillisecond);
}

}  // namespace
}  // namespace tempo

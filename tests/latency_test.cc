// Tests for the latency observatory's slack attribution: the SlackState
// fold's span semantics (re-arms, cancels, early fires, rounding skew,
// dynamic-alloc id clustering), the ordered-merge jobs identity of
// LatencyPass, the structural identity between the live SlackTracker and
// the offline pass over the same record sequence — single-threaded and
// through a threaded relay drain — and the dispatcher's per-task lateness
// histogram cross-checked against LatencyPass on a scripted workload.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "src/analysis/latency.h"
#include "src/analysis/pipeline.h"
#include "src/dispatcher/dispatcher.h"
#include "src/live/slack_tracker.h"
#include "src/obs/metrics.h"
#include "src/sim/time.h"
#include "src/trace/relay.h"

namespace tempo {
namespace {

TraceRecord Rec(TimerOp op, SimTime ts, TimerId timer, SimDuration timeout = 0,
                SimTime expiry = 0, uint16_t flags = 0, Pid pid = 1,
                CallsiteId callsite = 0) {
  TraceRecord r;
  r.op = op;
  r.timestamp = ts;
  r.timer = timer;
  r.timeout = timeout;
  r.expiry = expiry;
  r.flags = flags;
  r.pid = pid;
  r.callsite = callsite;
  return r;
}

SlackState Fold(const std::vector<TraceRecord>& records) {
  SlackState state;
  state.Accumulate(std::span<const TraceRecord>(records.data(), records.size()));
  return state;
}

// --- span semantics ---

TEST(LatencySpans, ReArmedTimerClosesOnlyTheLastArm) {
  // set -> set -> expire: the second set supersedes the first (one re-armed
  // span), and the fired span's slack is measured against the second arm.
  const std::vector<TraceRecord> records = {
      Rec(TimerOp::kSet, 0, 1, 10 * kMillisecond, 10 * kMillisecond),
      Rec(TimerOp::kSet, 5 * kMillisecond, 1, 10 * kMillisecond, 15 * kMillisecond),
      Rec(TimerOp::kExpire, 15 * kMillisecond, 1),
  };
  const SlackState state = Fold(records);
  EXPECT_EQ(state.rearmed_spans(), 1u);
  EXPECT_EQ(state.fired_spans(), 1u);
  EXPECT_EQ(state.open_spans(), 0u);
  // Fired exactly at requested = 5ms + 10ms: zero slack.
  EXPECT_EQ(state.total().count, 1u);
  EXPECT_EQ(state.total().sum, 0u);
}

TEST(LatencySpans, CancelBeforeExpireIsACanceledSpanNotAFiredOne) {
  const std::vector<TraceRecord> records = {
      Rec(TimerOp::kSet, 0, 1, 10 * kMillisecond, 10 * kMillisecond),
      Rec(TimerOp::kCancel, 3 * kMillisecond, 1),
  };
  const SlackState state = Fold(records);
  EXPECT_EQ(state.canceled_spans(), 1u);
  EXPECT_EQ(state.fired_spans(), 0u);
  EXPECT_TRUE(state.total().empty());
}

TEST(LatencySpans, EarlyFireClampsToZeroAndIsCounted) {
  // The expire lands before the requested time (timer migration, clock
  // steps): slack clamps to zero rather than going negative, and the span
  // is flagged so the clamp is visible.
  const std::vector<TraceRecord> records = {
      Rec(TimerOp::kSet, 0, 1, 10 * kMillisecond, 10 * kMillisecond),
      Rec(TimerOp::kExpire, 8 * kMillisecond, 1),
  };
  const SlackState state = Fold(records);
  EXPECT_EQ(state.fired_spans(), 1u);
  EXPECT_EQ(state.early_fires(), 1u);
  EXPECT_EQ(state.total().count, 1u);
  EXPECT_EQ(state.total().sum, 0u);
}

TEST(LatencySpans, RoundingSkewAndMachineryDelaySplit) {
  // Requested 0+10ms; the kernel rounded the deadline to 14ms (skew 4ms)
  // and delivered at 16ms (firing 2ms): total slack 6ms.
  const std::vector<TraceRecord> records = {
      Rec(TimerOp::kSet, 0, 1, 10 * kMillisecond, 14 * kMillisecond, kFlagRounded),
      Rec(TimerOp::kExpire, 16 * kMillisecond, 1),
  };
  const SlackState state = Fold(records);
  EXPECT_EQ(state.total().sum, static_cast<uint64_t>(6 * kMillisecond));
  EXPECT_EQ(state.skew().sum, static_cast<uint64_t>(4 * kMillisecond));
  EXPECT_EQ(state.firing().sum, static_cast<uint64_t>(2 * kMillisecond));
  // The arming flags route the span to the rounded class.
  EXPECT_EQ(state.cls(SlackClass::kRounded).count, 1u);
  EXPECT_EQ(state.cls(SlackClass::kPlain).count, 0u);
}

TEST(LatencySpans, ExpireWithoutExpiryFallsBackToTheRequestedTime) {
  // An arm whose record carries no absolute expiry (expiry 0, e.g. a
  // monotonic-Advance clamped path that never scheduled hardware) is
  // measured purely against set + timeout.
  const std::vector<TraceRecord> records = {
      Rec(TimerOp::kSet, 0, 1, 10 * kMillisecond, /*expiry=*/0),
      Rec(TimerOp::kExpire, 13 * kMillisecond, 1),
  };
  const SlackState state = Fold(records);
  EXPECT_EQ(state.total().sum, static_cast<uint64_t>(3 * kMillisecond));
  EXPECT_EQ(state.skew().sum, 0u);
  EXPECT_EQ(state.firing().sum, static_cast<uint64_t>(3 * kMillisecond));
}

TEST(LatencySpans, ExtremeTimesDoNotOverflow) {
  // A damaged or hostile trace can put times anywhere in int64_t. Timer 1
  // asks for set + timeout past INT64_MAX: the request saturates, so its
  // fire is early. Timer 2's request lies near INT64_MIN and its fire near
  // INT64_MAX: the slack is wider than int64_t holds, but not than its
  // unsigned distance does.
  constexpr SimTime kMin = std::numeric_limits<SimTime>::min();
  constexpr SimTime kMax = std::numeric_limits<SimTime>::max();
  const std::vector<TraceRecord> records = {
      Rec(TimerOp::kSet, kMin + 1, 2, kSecond),
      Rec(TimerOp::kSet, kMax - 10, 1, kSecond),
      Rec(TimerOp::kExpire, kMax - 5, 1),
      Rec(TimerOp::kExpire, kMax - 1, 2),
  };
  const SlackState state = Fold(records);
  EXPECT_EQ(state.fired_spans(), 2u);
  EXPECT_EQ(state.early_fires(), 1u);
  const uint64_t slack = UINT64_MAX - 2 - static_cast<uint64_t>(kSecond);
  EXPECT_EQ(state.total().count, 2u);
  EXPECT_EQ(state.total().max, slack);
  EXPECT_EQ(state.firing().max, slack);
  EXPECT_EQ(state.skew().sum, 0u);
}

TEST(LatencySpans, SlackWiderThanInt64RendersPositive) {
  // The trace above: timer 2's slack lies past INT64_MAX, so every row
  // that shows it (the histogram rows and both blame tables) must print a
  // positive duration, not the negative a signed cast makes of it.
  constexpr SimTime kMin = std::numeric_limits<SimTime>::min();
  constexpr SimTime kMax = std::numeric_limits<SimTime>::max();
  const std::vector<TraceRecord> records = {
      Rec(TimerOp::kSet, kMin + 1, 2, kSecond),
      Rec(TimerOp::kSet, kMax - 10, 1, kSecond),
      Rec(TimerOp::kExpire, kMax - 5, 1),
      Rec(TimerOp::kExpire, kMax - 1, 2),
  };
  const std::string report = RenderLatencyReport(Fold(records), nullptr, {}, 5);
  EXPECT_EQ(report.find("-9"), std::string::npos) << report;
  EXPECT_EQ(report.find("-1"), std::string::npos) << report;
  // The max is 2^64 - 2 - 10^9 ns; the other span fired early, slack 0.
  EXPECT_NE(report.find("  total                 2 spans  p50 1.15292e+10s  p99 1.83084e+10s"
                        "  max 1.84467e+10s\n"),
            std::string::npos)
      << report;
  EXPECT_NE(report.find("pid 1        2  1.84467e+10s  9.22337e+09s  1.84467e+10s\n"),
            std::string::npos)
      << report;
}

TEST(LatencySpans, SlackGaugesSaturateWiderThanInt64) {
  // The same trace through the live tracker: its signed gauges must hold
  // INT64_MAX, not the negative a wrapping or undefined cast makes.
  constexpr SimTime kMin = std::numeric_limits<SimTime>::min();
  constexpr SimTime kMax = std::numeric_limits<SimTime>::max();
  live::SlackTracker tracker("extreme_slack_test");
  for (const TraceRecord& r : {Rec(TimerOp::kSet, kMin + 1, 2, kSecond),
                               Rec(TimerOp::kSet, kMax - 10, 1, kSecond),
                               Rec(TimerOp::kExpire, kMax - 5, 1),
                               Rec(TimerOp::kExpire, kMax - 1, 2)}) {
    tracker.Ingest(r);
  }
  tracker.SyncObs();
  const obs::Labels labels = {{"analyzer", "extreme_slack_test"}};
  obs::Registry& registry = obs::Registry::Global();
  EXPECT_EQ(registry.GetGauge("live_slack_p99_ns", labels)->value(), INT64_MAX);
  EXPECT_EQ(registry.GetGauge("live_slack_max_ns", labels)->value(), INT64_MAX);
  EXPECT_GT(registry.GetGauge("live_slack_p50_ns", labels)->value(), 0);
}

TEST(LatencySpans, BlameSumSaturates) {
  SlackBlame blame;
  blame.Add(UINT64_MAX - 1);
  blame.Add(5);
  EXPECT_EQ(blame.spans, 2u);
  EXPECT_EQ(blame.slack_sum, UINT64_MAX);
  EXPECT_EQ(blame.slack_max, UINT64_MAX - 1);
  SlackBlame earlier;
  earlier.Add(7);
  earlier.Merge(blame);
  EXPECT_EQ(earlier.slack_sum, UINT64_MAX);
}

TEST(LatencySpans, UnmatchedCloseIsCountedNotInvented) {
  const std::vector<TraceRecord> records = {
      Rec(TimerOp::kExpire, kMillisecond, 42),
  };
  const SlackState state = Fold(records);
  EXPECT_EQ(state.unmatched_closes(), 1u);
  EXPECT_EQ(state.fired_spans(), 0u);
}

TEST(LatencySpans, DynamicAllocIdsClusterByCallsite) {
  // Vista-style dynamic allocation: every use is a fresh timer id
  // (Section 3.3), so per-id joins stay exact and the blame table folds
  // the ids back together by call-site.
  const CallsiteId site = 7;
  const std::vector<TraceRecord> records = {
      Rec(TimerOp::kSet, 0, 100, kMillisecond, kMillisecond, kFlagDynamicAlloc, 3, site),
      Rec(TimerOp::kExpire, 2 * kMillisecond, 100),
      Rec(TimerOp::kSet, 3 * kMillisecond, 101, kMillisecond, 4 * kMillisecond,
          kFlagDynamicAlloc, 3, site),
      Rec(TimerOp::kExpire, 5 * kMillisecond, 101),
  };
  const SlackState state = Fold(records);
  EXPECT_EQ(state.fired_spans(), 2u);
  ASSERT_EQ(state.by_callsite().size(), 1u);
  const SlackBlame& blame = state.by_callsite().begin()->second;
  EXPECT_EQ(blame.spans, 2u);
  EXPECT_EQ(blame.slack_sum, static_cast<uint64_t>(2 * kMillisecond));
  ASSERT_EQ(state.by_pid().size(), 1u);
  EXPECT_EQ(state.by_pid().begin()->first, 3);
}

// --- deterministic synthetic workloads ---

uint64_t XorShift(uint64_t* s) {
  *s ^= *s << 13;
  *s ^= *s >> 7;
  *s ^= *s << 17;
  return *s;
}

// A plausible mixed stream: arms, cancels, expiries (on time, late, early),
// re-arms and a few unmatched closes, over `timers` ids starting at `base`.
std::vector<TraceRecord> Stream(uint64_t seed, size_t count, TimerId base,
                                size_t timers) {
  std::vector<TraceRecord> out;
  out.reserve(count);
  uint64_t s = seed != 0 ? seed : 1;
  SimTime now = 0;
  for (size_t i = 0; i < count; ++i) {
    now += static_cast<SimDuration>(XorShift(&s) % (2 * kMillisecond));
    const TimerId timer = base + static_cast<TimerId>(XorShift(&s) % timers);
    const uint64_t roll = XorShift(&s) % 100;
    if (roll < 50) {
      const SimDuration timeout =
          static_cast<SimDuration>(kMicrosecond + XorShift(&s) % (50 * kMillisecond));
      // A third of the arms carry a rounded-up expiry, a few carry none.
      SimTime expiry = now + timeout;
      uint16_t flags = 0;
      if (roll % 3 == 0) {
        expiry += static_cast<SimDuration>(XorShift(&s) % (4 * kMillisecond));
        flags |= kFlagRounded;
      } else if (roll % 7 == 0) {
        expiry = 0;
      }
      if (roll % 5 == 0) {
        flags |= kFlagDeferrable;
      }
      out.push_back(Rec(TimerOp::kSet, now, timer, timeout, expiry, flags,
                        static_cast<Pid>(1 + roll % 3),
                        static_cast<CallsiteId>(roll % 4)));
    } else if (roll < 80) {
      out.push_back(Rec(TimerOp::kExpire, now, timer));
    } else {
      out.push_back(Rec(TimerOp::kCancel, now, timer));
    }
  }
  return out;
}

TEST(LatencyPassTest, JobsOneAndManyAreByteIdentical) {
  const std::vector<TraceRecord> records = Stream(2008, 20000, 1, 64);
  std::string reports[2];
  SlackState states[2];
  const size_t jobs[2] = {1, 4};
  for (int i = 0; i < 2; ++i) {
    PipelineOptions options;
    options.jobs = jobs[i];
    options.stats_label.clear();
    std::vector<std::unique_ptr<AnalysisPass>> passes;
    auto pass = std::make_unique<LatencyPass>();
    LatencyPass* raw = pass.get();
    passes.push_back(std::move(pass));
    PipelineRunner runner(options);
    // Small chunks so four workers really get disjoint ranges.
    runner.Run(std::span<const TraceRecord>(records.data(), records.size()),
               passes, /*chunk_records=*/512);
    states[i] = raw->state();
    reports[i] = RenderLatencyReport(raw->state(), nullptr, {}, 10);
  }
  EXPECT_EQ(states[0], states[1]);
  EXPECT_EQ(reports[0], reports[1]);
  // The stream must actually exercise the interesting paths.
  EXPECT_GT(states[0].fired_spans(), 0u);
  EXPECT_GT(states[0].canceled_spans(), 0u);
  EXPECT_GT(states[0].rearmed_spans(), 0u);
  EXPECT_GT(states[0].unmatched_closes(), 0u);
}

// --- live == offline ---

TEST(SlackLiveTest, TrackerMatchesOfflineFoldOverTheSameSequence) {
  const std::vector<TraceRecord> records = Stream(7, 5000, 1, 32);
  live::SlackTracker tracker{""};  // no obs label: pure fold
  for (const TraceRecord& record : records) {
    tracker.Ingest(record);
  }
  EXPECT_EQ(tracker.state(), Fold(records));
}

TEST(SlackLiveTest, ThreadedRelayDrainMatchesOfflinePass) {
  // Producers log through lock-free relay channels while the drainer
  // feeds the live tracker and captures the drained sequence; the offline
  // pass over that capture must reproduce the tracker's state exactly.
  // Run under TSan this is also the proof the drain path itself is clean.
  for (const uint64_t seed : {1ull, 42ull, 2008ull}) {
    constexpr size_t kProducers = 3;
    constexpr size_t kPerProducer = 4000;
    RelayChannelSet channels;
    std::vector<RelayChannel*> lanes;
    for (size_t p = 0; p < kProducers; ++p) {
      lanes.push_back(
          channels.Register("latency-test/" + std::to_string(p), {256, 4}));
    }
    live::SlackTracker tracker{""};
    std::vector<TraceRecord> captured;
    captured.reserve(kProducers * kPerProducer);
    RelayDrainer drainer(&channels, [&](const TraceRecord& record) {
      tracker.Ingest(record);
      captured.push_back(record);
    });

    std::vector<std::thread> producers;
    for (size_t p = 0; p < kProducers; ++p) {
      producers.emplace_back([&, p] {
        // Disjoint timer-id ranges per producer keep every set/expire pair
        // on one lane, so drops aside, spans survive any interleaving.
        const std::vector<TraceRecord> records =
            Stream(seed + p, kPerProducer, static_cast<TimerId>(1 + 1000 * p), 16);
        for (const TraceRecord& record : records) {
          while (!lanes[p]->TryLog(record)) {
            std::this_thread::yield();  // ring full: wait for the drainer
          }
        }
      });
    }
    // Drain concurrently until every producer is done, then flush.
    std::atomic<bool> done{false};
    std::thread drain_thread([&] {
      while (!done.load(std::memory_order_acquire)) {
        drainer.Poll();
      }
    });
    for (std::thread& t : producers) {
      t.join();
    }
    done.store(true, std::memory_order_release);
    drain_thread.join();
    channels.CloseAll();
    drainer.Finish();

    ASSERT_EQ(captured.size(), kProducers * kPerProducer) << "relay dropped records";
    EXPECT_EQ(tracker.state(), Fold(captured)) << "seed " << seed;
    EXPECT_GT(tracker.state().fired_spans(), 0u);
  }
}

// --- dispatcher lateness cross-check ---

TEST(LatencyDispatcherCrossCheck, TaskHistogramMatchesLatencyPassFiringComponent) {
  // Scripted workload in two acts. Act one: 20 zero-slack one-shots that
  // dispatch exactly on their deadlines (lateness 0). Act two: a recovery
  // callback that declares 20 jobs whose deadlines are already in the past
  // (catch-up work discovered after a stall) — each is provably late by a
  // known amount. The per-task obs histogram, the task's lateness scalars
  // and LatencyPass over synthesized set/expire records must all agree.
  Simulator sim{1};
  TemporalDispatcher dispatcher{&sim};
  DispatchTask* task = dispatcher.CreateTask("latency-xcheck");
  obs::Histogram* hist = obs::Registry::Global().GetHistogram(
      "dispatcher_task_lateness_ns", {{"task", "latency-xcheck"}});
  const uint64_t base_count = hist->count();
  const uint64_t base_sum = hist->sum();

  constexpr int kOnTime = 20;
  constexpr int kOverdue = 20;
  std::vector<TraceRecord> records;
  records.reserve(2 * (kOnTime + kOverdue));
  for (int i = 0; i < kOnTime; ++i) {
    const SimDuration delay = static_cast<SimDuration>(i + 1) * kMillisecond;
    records.push_back(Rec(TimerOp::kSet, sim.Now(), 1 + i, delay, sim.Now() + delay));
    task->RunAfter(delay, [&records, &sim, i] {
      records.push_back(Rec(TimerOp::kExpire, sim.Now(), 1 + i));
    });
  }
  task->RunAfter(100 * kMillisecond, [&] {
    for (int j = 0; j < kOverdue; ++j) {
      const SimDuration overdue = static_cast<SimDuration>(j + 1) * 20 * kMicrosecond;
      const TimerId timer = 100 + j;
      // An absolute deadline already in the past: timeout 0, expiry set.
      records.push_back(
          Rec(TimerOp::kSet, sim.Now(), timer, 0, sim.Now() - overdue, kFlagAbsolute));
      task->RunWithin(-overdue, -overdue, [&records, &sim, timer] {
        records.push_back(Rec(TimerOp::kExpire, sim.Now(), timer));
      });
    }
  });
  sim.RunUntil(kSecond);

  constexpr uint64_t kJobs = kOnTime + kOverdue + 1;  // + the recovery shot
  const SlackState state = Fold(records);
  ASSERT_EQ(state.fired_spans(), static_cast<uint64_t>(kOnTime + kOverdue));
  EXPECT_EQ(task->dispatches(), kJobs);
  // Zero-slack windows: requested == deadline, so the pass's firing
  // component IS dispatch lateness (the recovery shot itself is on time
  // and unrecorded, adding zero to both sides).
  EXPECT_EQ(state.firing().sum, static_cast<uint64_t>(task->total_lateness()));
  EXPECT_EQ(state.firing().max, static_cast<uint64_t>(task->worst_lateness()));
  EXPECT_EQ(state.total().sum, static_cast<uint64_t>(task->total_lateness()));
  EXPECT_GT(task->total_lateness(), 0) << "workload failed to provoke lateness";
  // And the exported histogram carries the same distribution.
  EXPECT_EQ(hist->count() - base_count, kJobs);
  EXPECT_EQ(hist->sum() - base_sum, static_cast<uint64_t>(task->total_lateness()));
  EXPECT_GE(hist->max(), static_cast<uint64_t>(task->worst_lateness()));
}

}  // namespace
}  // namespace tempo

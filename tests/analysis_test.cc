// Tests for the analysis pipeline: lifetime reconstruction, the
// usage-pattern classifier, histograms, scatter, summaries, rates, origins
// and rendering.

#include <gtest/gtest.h>

#include <limits>
#include <utility>
#include <vector>

#include "src/analysis/classify.h"
#include "src/analysis/histogram.h"
#include "src/analysis/lifetimes.h"
#include "src/analysis/origins.h"
#include "src/analysis/rates.h"
#include "src/analysis/render.h"
#include "src/analysis/scatter.h"
#include "src/analysis/summary.h"

namespace tempo {
namespace {

// Builder for synthetic traces.
class TraceBuilder {
 public:
  TraceBuilder& At(SimTime t) {
    now_ = t;
    return *this;
  }
  TraceBuilder& Advance(SimDuration d) {
    now_ += d;
    return *this;
  }
  TraceBuilder& Set(TimerId timer, SimDuration timeout, uint16_t flags = 0,
                    CallsiteId callsite = kUnknownCallsite, Pid pid = kKernelPid) {
    TraceRecord r;
    r.timestamp = now_;
    r.timer = timer;
    r.timeout = timeout;
    r.expiry = now_ + timeout;
    r.callsite = callsite;
    r.pid = pid;
    r.op = TimerOp::kSet;
    r.flags = flags;
    records_.push_back(r);
    return *this;
  }
  TraceBuilder& Cancel(TimerId timer) {
    TraceRecord r;
    r.timestamp = now_;
    r.timer = timer;
    r.op = TimerOp::kCancel;
    records_.push_back(r);
    return *this;
  }
  TraceBuilder& Expire(TimerId timer) {
    TraceRecord r;
    r.timestamp = now_;
    r.timer = timer;
    r.op = TimerOp::kExpire;
    records_.push_back(r);
    return *this;
  }
  TraceBuilder& Push(const TraceRecord& r) {
    records_.push_back(r);
    return *this;
  }
  const std::vector<TraceRecord>& records() const { return records_; }

 private:
  SimTime now_ = 0;
  std::vector<TraceRecord> records_;
};

// --- EpisodeBuilder ---

TEST(LifetimesTest, SetExpirePairMakesExpiredEpisode) {
  TraceBuilder b;
  b.Set(1, kSecond).Advance(kSecond).Expire(1);
  EpisodeBuilder builder;
  builder.Accumulate(b.records());
  const auto episodes = std::move(builder).Finish();
  ASSERT_EQ(episodes.size(), 1u);
  EXPECT_EQ(episodes[0].end, EpisodeEnd::kExpired);
  EXPECT_EQ(episodes[0].held(), kSecond);
  EXPECT_DOUBLE_EQ(episodes[0].fraction(), 1.0);
}

TEST(LifetimesTest, SetCancelPairMakesCanceledEpisode) {
  TraceBuilder b;
  b.Set(1, kSecond).Advance(300 * kMillisecond).Cancel(1);
  EpisodeBuilder builder;
  builder.Accumulate(b.records());
  const auto episodes = std::move(builder).Finish();
  ASSERT_EQ(episodes.size(), 1u);
  EXPECT_EQ(episodes[0].end, EpisodeEnd::kCanceled);
  EXPECT_DOUBLE_EQ(episodes[0].fraction(), 0.3);
}

TEST(LifetimesTest, ReSetWhilePendingMakesResetEpisode) {
  TraceBuilder b;
  b.Set(1, kSecond).Advance(500 * kMillisecond).Set(1, kSecond);
  EpisodeBuilder builder;
  builder.Accumulate(b.records());
  const auto episodes = std::move(builder).Finish();
  ASSERT_EQ(episodes.size(), 2u);
  EXPECT_EQ(episodes[0].end, EpisodeEnd::kReset);
  EXPECT_EQ(episodes[1].end, EpisodeEnd::kOpen);
}

TEST(LifetimesTest, CancelWithoutSetIsIgnored) {
  TraceBuilder b;
  b.Cancel(7).Advance(kSecond).Expire(8);
  EpisodeBuilder builder;
  builder.Accumulate(b.records());
  EXPECT_TRUE(std::move(builder).Finish().empty());
}

TEST(LifetimesTest, BlockUnblockBecomesEpisode) {
  TraceRecord block;
  block.timestamp = 0;
  block.timer = 5;
  block.timeout = kSecond;
  block.op = TimerOp::kBlock;
  TraceRecord unblock;
  unblock.timestamp = 400 * kMillisecond;
  unblock.timer = 5;
  unblock.op = TimerOp::kUnblock;
  unblock.flags = kFlagWaitSatisfied;
  const std::vector<TraceRecord> records = {block, unblock};
  EpisodeBuilder builder;
  builder.Accumulate(records);
  const auto episodes = std::move(builder).Finish();
  ASSERT_EQ(episodes.size(), 1u);
  EXPECT_EQ(episodes[0].end, EpisodeEnd::kCanceled);  // satisfied = not a timeout
}

TEST(LifetimesTest, HeldSaturatesAtExtremeTimes) {
  // A decoded trace can set a timer near INT64_MIN and end it near
  // INT64_MAX; the time it was held is wider than SimDuration and clamps.
  constexpr SimTime kMin = std::numeric_limits<SimTime>::min();
  constexpr SimTime kMax = std::numeric_limits<SimTime>::max();
  Episode e;
  e.set_time = kMin + 1;
  e.end_time = kMax - 1;
  e.timeout = kSecond;
  e.end = EpisodeEnd::kExpired;
  EXPECT_EQ(e.held(), kMax);
  EXPECT_GT(e.fraction(), 1.0);
  std::swap(e.set_time, e.end_time);
  EXPECT_EQ(e.held(), -kMax);
  e.end_time = e.set_time;
  EXPECT_EQ(e.held(), 0);
}

TEST(LifetimesTest, DynamicTimersClusterByCallsite) {
  // Two dynamic-alloc episodes with different timer ids but the same
  // call-site/thread must share a cluster key (Vista semantics).
  TraceBuilder b;
  b.Set(100, kSecond, kFlagDynamicAlloc, 9, 3).Advance(kSecond).Expire(100);
  b.Set(101, kSecond, kFlagDynamicAlloc, 9, 3).Advance(kSecond).Expire(101);
  b.Set(102, kSecond, 0, 9, 3);  // static identity: separate cluster
  EpisodeBuilder builder;
  builder.Accumulate(b.records());
  size_t groups = 0;
  builder.ForEachGroup([&groups](const std::vector<Episode>&) { ++groups; });
  EXPECT_EQ(groups, 2u);
}

// --- classifier ---

std::vector<TimerClass> Classify(const std::vector<TraceRecord>& records,
                                 const ClassifyOptions& options = ClassifyOptions{}) {
  ClassifyPass pass(options);
  pass.Accumulate(records);
  return pass.Result();
}

TEST(ClassifyTest, PeriodicTicker) {
  TraceBuilder b;
  for (int i = 0; i < 20; ++i) {
    b.Set(1, kSecond).Advance(kSecond).Expire(1);  // re-set right after expiry
  }
  const auto classes = Classify(b.records());
  ASSERT_EQ(classes.size(), 1u);
  EXPECT_EQ(classes[0].pattern, UsagePattern::kPeriodic);
  EXPECT_EQ(classes[0].dominant_timeout, kSecond);
}

TEST(ClassifyTest, PeriodicToleratesJitterWithinVariance) {
  TraceBuilder b;
  for (int i = 0; i < 20; ++i) {
    const SimDuration jitter = (i % 3) * 600 * kMicrosecond;  // < 2 ms
    b.Set(1, kSecond - jitter).Advance(kSecond).Expire(1).Advance(kMillisecond);
  }
  const auto classes = Classify(b.records());
  ASSERT_EQ(classes.size(), 1u);
  EXPECT_EQ(classes[0].pattern, UsagePattern::kPeriodic);
}

TEST(ClassifyTest, WatchdogNeverExpires) {
  TraceBuilder b;
  for (int i = 0; i < 20; ++i) {
    b.Set(1, 600 * kSecond).Advance(100 * kSecond);  // re-set long before expiry
  }
  const auto classes = Classify(b.records());
  ASSERT_EQ(classes.size(), 1u);
  EXPECT_EQ(classes[0].pattern, UsagePattern::kWatchdog);
}

TEST(ClassifyTest, DelayExpiresThenRestsBeforeReset) {
  TraceBuilder b;
  for (int i = 0; i < 20; ++i) {
    b.Set(1, kSecond).Advance(kSecond).Expire(1).Advance(500 * kMillisecond);
  }
  const auto classes = Classify(b.records());
  ASSERT_EQ(classes.size(), 1u);
  EXPECT_EQ(classes[0].pattern, UsagePattern::kDelay);
}

TEST(ClassifyTest, TimeoutMostlyCanceled) {
  TraceBuilder b;
  for (int i = 0; i < 20; ++i) {
    b.Set(1, 30 * kSecond).Advance(20 * kMillisecond).Cancel(1).Advance(2 * kSecond);
  }
  const auto classes = Classify(b.records());
  ASSERT_EQ(classes.size(), 1u);
  EXPECT_EQ(classes[0].pattern, UsagePattern::kTimeout);
  EXPECT_EQ(classes[0].dominant_timeout, 30 * kSecond);
}

TEST(ClassifyTest, DeferredMixesResetsAndExpiries) {
  TraceBuilder b;
  for (int round = 0; round < 6; ++round) {
    // A burst of deferrals, then the idle expiry (lazy close).
    for (int i = 0; i < 4; ++i) {
      b.Set(1, 2 * kSecond).Advance(300 * kMillisecond);
    }
    b.Set(1, 2 * kSecond).Advance(2 * kSecond).Expire(1).Advance(10 * kSecond);
  }
  const auto classes = Classify(b.records());
  ASSERT_EQ(classes.size(), 1u);
  EXPECT_EQ(classes[0].pattern, UsagePattern::kDeferred);
}

TEST(ClassifyTest, SelectCountdown) {
  TraceBuilder b;
  // Count 600 s down in 40 s slices (fd activity), then time out, reset.
  for (int cycle = 0; cycle < 3; ++cycle) {
    SimDuration remaining = 600 * kSecond;
    while (remaining > 40 * kSecond) {
      b.Set(1, remaining, kFlagUser);
      b.Advance(40 * kSecond);
      b.Cancel(1);
      remaining -= 40 * kSecond;
    }
    b.Set(1, remaining, kFlagUser).Advance(remaining).Expire(1);
  }
  const auto classes = Classify(b.records());
  ASSERT_EQ(classes.size(), 1u);
  EXPECT_EQ(classes[0].pattern, UsagePattern::kCountdown);
  EXPECT_EQ(classes[0].dominant_timeout, 600 * kSecond);
}

TEST(ClassifyTest, IrregularValuesAreOther) {
  TraceBuilder b;
  SimDuration values[] = {13 * kMillisecond, 170 * kMillisecond, 450 * kMillisecond,
                          90 * kMillisecond, 800 * kMillisecond, 230 * kMillisecond,
                          60 * kMillisecond, 610 * kMillisecond};
  for (SimDuration v : values) {
    b.Set(1, v).Advance(v).Expire(1).Advance(10 * kMillisecond);
  }
  const auto classes = Classify(b.records());
  ASSERT_EQ(classes.size(), 1u);
  EXPECT_EQ(classes[0].pattern, UsagePattern::kOther);
}

TEST(ClassifyTest, FewEpisodesAreSingleUse) {
  TraceBuilder b;
  b.Set(1, kSecond).Advance(kSecond).Expire(1);
  const auto classes = Classify(b.records());
  ASSERT_EQ(classes.size(), 1u);
  EXPECT_EQ(classes[0].pattern, UsagePattern::kSingleUse);
}

TEST(ClassifyTest, VarianceKnobControlsToleranceWindow) {
  // Values alternating +/- 5 ms around 1 s: with the paper's 2 ms variance
  // this is irregular; with 10 ms it is one dominant value.
  TraceBuilder b;
  for (int i = 0; i < 20; ++i) {
    const SimDuration v = kSecond + (i % 2 == 0 ? 5 : -5) * kMillisecond;
    b.Set(1, v).Advance(v).Expire(1);
  }
  ClassifyOptions narrow;
  narrow.variance = 2 * kMillisecond;
  EXPECT_EQ(Classify(b.records(), narrow)[0].pattern, UsagePattern::kOther);
  ClassifyOptions wide;
  wide.variance = 10 * kMillisecond;
  EXPECT_EQ(Classify(b.records(), wide)[0].pattern, UsagePattern::kPeriodic);
}

TEST(ClassifyTest, ExtremeTimesAndTimeoutsDoNotOverflow) {
  // A damaged or hostile trace can put set times, end times and timeouts
  // anywhere in int64_t. Every difference the classifier takes here is
  // out of int64_t's range: the countdown steps, the dominant-value
  // window, the distance of the two stray values from the dominant one,
  // and the re-set gap after each expiry.
  constexpr SimTime kMin = std::numeric_limits<SimTime>::min();
  constexpr SimTime kMax = std::numeric_limits<SimTime>::max();
  std::vector<Episode> group;
  for (int i = 0; i < 10; ++i) {
    Episode e;
    e.timer = 1;
    e.set_time = i % 2 == 0 ? kMin + i : kMax - i;
    e.end_time = i % 2 == 0 ? kMin : kMax;
    e.end = EpisodeEnd::kExpired;
    e.timeout = i < 8 ? kMax : kMin;
    e.canonical = e.timeout;
    group.push_back(e);
  }
  const TimerClass c = ClassifyGroup(group, ClassifyOptions{});
  EXPECT_EQ(c.episodes, 10u);
  EXPECT_EQ(c.dominant_timeout, kMax);
  // Eight of ten values agree and all eight expired; the re-set after an
  // expiry is immediate for the four whose gap is hugely negative.
  EXPECT_EQ(c.pattern, UsagePattern::kPeriodic);
}

TEST(ClassifyTest, PatternHistogramPercentagesSumTo100) {
  TraceBuilder b;
  for (int i = 0; i < 10; ++i) {
    b.Set(1, kSecond).Advance(kSecond).Expire(1);
  }
  b.At(0);
  for (int i = 0; i < 10; ++i) {
    b.Set(2, 30 * kSecond).Advance(10 * kMillisecond).Cancel(2).Advance(kSecond);
  }
  b.Set(3, kSecond);  // single use: excluded
  const auto histogram = PatternHistogram(Classify(b.records()));
  double total = 0;
  for (const auto& [pattern, pct] : histogram) {
    total += pct;
  }
  EXPECT_NEAR(total, 100.0, 1e-9);
  EXPECT_NEAR(histogram.at(UsagePattern::kPeriodic), 50.0, 1e-9);
  EXPECT_NEAR(histogram.at(UsagePattern::kTimeout), 50.0, 1e-9);
}

// --- summary ---

TEST(SummaryTest, CountsAllFields) {
  TraceBuilder b;
  b.Set(1, kSecond, kFlagUser, kUnknownCallsite, 5);
  b.Set(2, kSecond);
  b.Advance(kSecond).Expire(1).Cancel(2);
  SummaryPass pass("test");
  pass.Accumulate(b.records());
  const TraceSummary s = pass.Result();
  EXPECT_EQ(s.label, "test");
  EXPECT_EQ(s.timers, 2u);
  EXPECT_EQ(s.concurrency, 2u);
  EXPECT_EQ(s.accesses, 4u);
  EXPECT_EQ(s.user_space, 1u);
  EXPECT_EQ(s.kernel, 3u);
  EXPECT_EQ(s.set, 2u);
  EXPECT_EQ(s.expired, 1u);
  EXPECT_EQ(s.canceled, 1u);
}

TEST(SummaryTest, ConcurrencyIsMaxOutstanding) {
  TraceBuilder b;
  b.Set(1, kSecond).Set(2, kSecond).Set(3, kSecond);
  b.Advance(kSecond).Expire(1).Expire(2).Expire(3);
  b.Set(4, kSecond);
  SummaryPass pass("t");
  pass.Accumulate(b.records());
  const TraceSummary s = pass.Result();
  EXPECT_EQ(s.concurrency, 3u);
}

TEST(SummaryTest, UnblockSatisfiedCountsAsCanceled) {
  TraceRecord block;
  block.op = TimerOp::kBlock;
  block.timer = 1;
  TraceRecord ok = block;
  ok.op = TimerOp::kUnblock;
  ok.flags = kFlagWaitSatisfied;
  TraceRecord timeout = block;
  timeout.op = TimerOp::kUnblock;
  const std::vector<TraceRecord> records = {block, ok, block, timeout};
  SummaryPass pass("t");
  pass.Accumulate(records);
  const TraceSummary s = pass.Result();
  EXPECT_EQ(s.set, 2u);
  EXPECT_EQ(s.canceled, 1u);
  EXPECT_EQ(s.expired, 1u);
}

// --- histogram ---

TEST(HistogramTest, ThresholdDropsRareValues) {
  TraceBuilder b;
  for (int i = 0; i < 98; ++i) {
    b.Set(1, kSecond, kFlagUser).Advance(kSecond).Expire(1);
  }
  b.Set(2, 7 * kSecond, kFlagUser);  // ~1%: below the 2% threshold
  b.Set(3, 9 * kSecond, kFlagUser);
  HistogramOptions options;
  HistogramPass pass(options);
  pass.Accumulate(b.records());
  const ValueHistogram h = pass.Result();
  ASSERT_EQ(h.buckets.size(), 1u);
  EXPECT_EQ(h.buckets[0].value, kSecond);
  EXPECT_EQ(h.total_sets, 100u);
  EXPECT_NEAR(h.buckets[0].percent, 98.0, 0.01);
  EXPECT_NEAR(h.coverage_percent, 98.0, 0.01);
}

TEST(HistogramTest, KernelValuesBucketedInExactJiffies) {
  TraceBuilder b;
  // Kernel wheel records with jittered observed timeouts but exact expiry.
  for (int i = 0; i < 10; ++i) {
    TraceRecord r;
    r.timestamp = i * kSecond + 1700 * kMicrosecond;  // mid-jiffy
    r.timer = 1;
    r.op = TimerOp::kSet;
    r.flags = kFlagJiffyWheel;
    r.timeout = 204 * kMillisecond - 1500 * kMicrosecond;  // jittered
    r.expiry = JiffiesToTime(TimeToJiffies(r.timestamp) + 51);
    b.Push(r);
  }
  HistogramOptions options;
  options.min_percent = 0;
  HistogramPass pass(options);
  pass.Accumulate(b.records());
  const ValueHistogram h = pass.Result();
  ASSERT_EQ(h.buckets.size(), 1u);
  EXPECT_EQ(h.buckets[0].jiffies, 51);
  EXPECT_EQ(h.buckets[0].value, 204 * kMillisecond);
}

TEST(HistogramTest, UserOnlyFilter) {
  TraceBuilder b;
  b.Set(1, kSecond, kFlagUser);
  b.Set(2, 2 * kSecond);  // kernel
  HistogramOptions options;
  options.user_only = true;
  options.min_percent = 0;
  HistogramPass pass(options);
  pass.Accumulate(b.records());
  const ValueHistogram h = pass.Result();
  ASSERT_EQ(h.buckets.size(), 1u);
  EXPECT_EQ(h.total_sets, 1u);
}

TEST(HistogramTest, PidExclusionFilter) {
  TraceBuilder b;
  b.Set(1, kSecond, kFlagUser, kUnknownCallsite, /*pid=*/7);
  b.Set(2, 2 * kSecond, kFlagUser, kUnknownCallsite, /*pid=*/8);
  HistogramOptions options;
  options.exclude_pids = {7};
  options.min_percent = 0;
  HistogramPass pass(options);
  pass.Accumulate(b.records());
  const ValueHistogram h = pass.Result();
  ASSERT_EQ(h.buckets.size(), 1u);
  EXPECT_EQ(h.buckets[0].value, 2 * kSecond);
}

TEST(HistogramTest, CountdownExclusionFilter) {
  TraceBuilder b;
  // A countdown timer plus a fixed-value one.
  SimDuration remaining = 10 * kSecond;
  while (remaining > kSecond) {
    b.Set(1, remaining, kFlagUser).Advance(kSecond).Cancel(1);
    remaining -= kSecond;
  }
  for (int i = 0; i < 5; ++i) {
    b.Set(2, 5 * kSecond, kFlagUser).Advance(5 * kSecond).Expire(2);
  }
  HistogramOptions options;
  options.min_percent = 0;
  options.exclude_countdowns = true;
  HistogramPass pass(options);
  pass.Accumulate(b.records());
  const ValueHistogram h = pass.Result();
  ASSERT_EQ(h.buckets.size(), 1u);
  EXPECT_EQ(h.buckets[0].value, 5 * kSecond);
}

// --- scatter ---

TEST(ScatterTest, ExpiredAndCanceledSeparated) {
  TraceBuilder b;
  b.Set(1, kSecond).Advance(kSecond).Expire(1);
  b.Set(2, kSecond).Advance(300 * kMillisecond).Cancel(2);
  ScatterOptions options;
  ScatterPass pass(options);
  pass.Accumulate(b.records());
  const auto points = pass.Result();
  ASSERT_EQ(points.size(), 2u);
  int expired = 0;
  for (const auto& p : points) {
    expired += p.expired ? 1 : 0;
  }
  EXPECT_EQ(expired, 1);
}

TEST(ScatterTest, CutoffDropsVeryLateDeliveries) {
  TraceBuilder b;
  // Delivered at 300% of its timeout: above the figures' 250% cut-off.
  b.Set(1, 10 * kMillisecond).Advance(30 * kMillisecond).Expire(1);
  b.Set(2, kSecond).Advance(kSecond).Expire(2);
  ScatterOptions options;
  ScatterPass pass(options);
  pass.Accumulate(b.records());
  const auto points = pass.Result();
  ASSERT_EQ(points.size(), 1u);
  EXPECT_NEAR(points[0].timeout_seconds, 1.0, 0.3);
}

TEST(ScatterTest, ImmediateTimersNotPlotted) {
  TraceBuilder b;
  b.Set(1, 0).Advance(kMillisecond).Expire(1);
  ScatterPass pass;
  pass.Accumulate(b.records());
  EXPECT_TRUE(pass.Result().empty());
}

TEST(ScatterTest, AggregatesEqualPointsWithCounts) {
  TraceBuilder b;
  for (int i = 0; i < 50; ++i) {
    b.Set(1, kSecond).Advance(kSecond).Expire(1);
  }
  ScatterOptions options;
  ScatterPass pass(options);
  pass.Accumulate(b.records());
  const auto points = pass.Result();
  ASSERT_EQ(points.size(), 1u);
  EXPECT_EQ(points[0].count, 50u);
}

TEST(ScatterTest, PercentReflectsCancelFraction) {
  TraceBuilder b;
  b.Set(1, 10 * kSecond).Advance(5 * kSecond).Cancel(1);
  ScatterOptions options;
  ScatterPass pass(options);
  pass.Accumulate(b.records());
  const auto points = pass.Result();
  ASSERT_EQ(points.size(), 1u);
  EXPECT_NEAR(points[0].percent, 50.0, options.percent_bucket);
}

// --- rates ---

TEST(RatesTest, GroupsByPidLabels) {
  TraceBuilder b;
  for (int s = 0; s < 10; ++s) {
    b.At(s * kSecond);
    for (int i = 0; i < 5; ++i) {
      b.Set(1, kSecond, kFlagUser, kUnknownCallsite, /*pid=*/1);
    }
    b.Set(2, kSecond, 0, kUnknownCallsite, kKernelPid);
  }
  RateGrouping grouping;
  grouping.pid_labels[1] = "Outlook";
  RateOptions options;
  options.end = 10 * kSecond;
  RatesPass pass(grouping, options);
  pass.Accumulate(b.records());
  const auto series = pass.Result();
  ASSERT_EQ(series.size(), 2u);  // Outlook + Kernel
  for (const auto& s : series) {
    ASSERT_EQ(s.per_window.size(), 10u);
    if (s.label == "Outlook") {
      EXPECT_EQ(s.per_window[0], 5u);
    } else {
      EXPECT_EQ(s.label, "Kernel");
      EXPECT_EQ(s.per_window[0], 1u);
    }
  }
}

TEST(RatesTest, ExtremeTimesKeepTheWindowCount) {
  // A record at INT64_MAX - 1 with 2^62 ns windows: the range [0, INT64_MAX
  // - 1) spans two windows, and rounding it up must not add past int64_t.
  constexpr SimTime kMin = std::numeric_limits<SimTime>::min();
  constexpr SimTime kMax = std::numeric_limits<SimTime>::max();
  TraceBuilder b;
  b.At(0).Set(1, 0, kFlagUser, kUnknownCallsite, 1);
  b.At(kMax - 1).Set(1, 0, kFlagUser, kUnknownCallsite, 1);
  RateGrouping grouping;
  RateOptions options;
  options.window = SimDuration{1} << 62;
  RatesPass pass(grouping, options);
  pass.Accumulate(b.records());
  auto series = pass.Result();
  ASSERT_EQ(series.size(), 1u);
  // The last record marks the derived end and falls outside the range.
  EXPECT_EQ(series[0].per_window, (std::vector<uint64_t>{1, 0}));

  // From just above INT64_MIN the range is wider than int64_t: four windows.
  options.start = kMin + 1;
  RatesPass wide(grouping, options);
  wide.Accumulate(b.records());
  series = wide.Result();
  ASSERT_EQ(series.size(), 1u);
  EXPECT_EQ(series[0].per_window, (std::vector<uint64_t>{0, 1, 0, 0}));
}

TEST(RatesTest, EmptyLabelDropsRecords) {
  TraceBuilder b;
  b.Set(1, kSecond, kFlagUser, kUnknownCallsite, 1);
  RateGrouping grouping;
  grouping.default_label = "";
  RateOptions options;
  options.end = kSecond;
  RatesPass pass(grouping, options);
  pass.Accumulate(b.records());
  const auto series = pass.Result();
  EXPECT_TRUE(series.empty());
}

// --- origins ---

TEST(OriginsTest, AttributesValuesToCallsites) {
  CallsiteRegistry callsites;
  const CallsiteId usb = callsites.Intern("usb/hc_status_poll");
  const CallsiteId ide = callsites.Intern("ide/command_timeout");
  TraceBuilder b;
  for (int i = 0; i < 50; ++i) {
    b.Set(1, 248 * kMillisecond, 0, usb).Advance(248 * kMillisecond).Expire(1);
  }
  b.At(0);
  for (int i = 0; i < 10; ++i) {
    b.Set(2, 30 * kSecond, 0, ide).Advance(10 * kMillisecond).Cancel(2).Advance(kSecond);
  }
  OriginOptions options;
  OriginsPass pass(&callsites, options);
  pass.Accumulate(b.records());
  const auto rows = pass.Result();
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].origin, "usb/hc_status_poll");
  EXPECT_EQ(rows[0].pattern, UsagePattern::kPeriodic);
  EXPECT_EQ(rows[1].origin, "ide/command_timeout");
  EXPECT_EQ(rows[1].pattern, UsagePattern::kTimeout);
  EXPECT_EQ(rows[1].value, 30 * kSecond);
}

TEST(OriginsTest, LargeValuesAlwaysIncluded) {
  CallsiteRegistry callsites;
  const CallsiteId ka = callsites.Intern("tcp/keepalive");
  const CallsiteId common = callsites.Intern("common");
  TraceBuilder b;
  for (int i = 0; i < 1000; ++i) {
    b.Set(1, kSecond, 0, common).Advance(kSecond).Expire(1);
  }
  b.At(0);
  b.Set(2, 7200 * kSecond, 0, ka).Advance(kSecond).Cancel(2);
  OriginOptions options;
  options.min_percent = 1.0;
  OriginsPass pass(&callsites, options);
  pass.Accumulate(b.records());
  const auto rows = pass.Result();
  bool found_keepalive = false;
  for (const auto& row : rows) {
    found_keepalive = found_keepalive || row.origin == "tcp/keepalive";
  }
  EXPECT_TRUE(found_keepalive);
}

// --- renderers (smoke: output contains the key content) ---

TEST(RenderTest, SummaryTableListsAllRows) {
  TraceSummary s;
  s.label = "Idle";
  s.timers = 47;
  s.set = 63183;
  const std::string table = RenderSummaryTable({s});
  EXPECT_NE(table.find("Idle"), std::string::npos);
  EXPECT_NE(table.find("63183"), std::string::npos);
  EXPECT_NE(table.find("Timers"), std::string::npos);
  EXPECT_NE(table.find("Canceled"), std::string::npos);
}

TEST(RenderTest, PatternHistogramShowsPercentages) {
  std::map<UsagePattern, double> h;
  h[UsagePattern::kPeriodic] = 62.5;
  const std::string out = RenderPatternHistogram({{"Idle", h}});
  EXPECT_NE(out.find("periodic"), std::string::npos);
  EXPECT_NE(out.find("62.5%"), std::string::npos);
}

TEST(RenderTest, ValueHistogramShowsJiffies) {
  ValueHistogram h;
  ValueBucket bucket;
  bucket.value = 204 * kMillisecond;
  bucket.jiffies = 51;
  bucket.count = 10;
  bucket.percent = 12.5;
  h.buckets.push_back(bucket);
  h.total_sets = 80;
  h.coverage_percent = 12.5;
  const std::string out = RenderValueHistogram(h, /*show_jiffies=*/true);
  EXPECT_NE(out.find("0.204"), std::string::npos);
  EXPECT_NE(out.find("(51)"), std::string::npos);
}

TEST(RenderTest, ScatterPlotsWithoutCrashing) {
  std::vector<ScatterPoint> points;
  for (int i = 0; i < 20; ++i) {
    ScatterPoint p;
    p.timeout_seconds = 0.001 * (i + 1);
    p.percent = 10.0 * i;
    p.count = static_cast<uint64_t>(i + 1);
    points.push_back(p);
  }
  const std::string out = RenderScatter(points);
  EXPECT_NE(out.find("%"), std::string::npos);
  const std::string cols = ScatterColumns(points);
  EXPECT_NE(cols.find("timeout_s"), std::string::npos);
}

TEST(RenderTest, OriginsTableShowsClasses) {
  OriginRow row;
  row.value = 5 * kSecond;
  row.origin = "mm/writeback";
  row.pattern = UsagePattern::kPeriodic;
  row.sets = 360;
  const std::string out = RenderOrigins({row});
  EXPECT_NE(out.find("mm/writeback"), std::string::npos);
  EXPECT_NE(out.find("periodic"), std::string::npos);
}

}  // namespace
}  // namespace tempo

namespace tempo {
namespace {

TEST(RenderRatesTest, ReportsMeanAndPeakPerSeries) {
  RateSeries outlook{"Outlook", {70, 70, 7000, 70}};
  const std::string out = RenderRates({outlook}, kSecond);
  EXPECT_NE(out.find("Outlook"), std::string::npos);
  EXPECT_NE(out.find("peak 7000/s"), std::string::npos);
}

TEST(RenderTableTest, AlignsColumnsAndPadsMissingCells) {
  const std::string out =
      RenderTable({"name", "value"}, {{"a", "1"}, {"long-name-row"}});
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("long-name-row"), std::string::npos);
  // Header separator present.
  EXPECT_NE(out.find("---"), std::string::npos);
}

}  // namespace
}  // namespace tempo

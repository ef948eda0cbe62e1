// Property tests: conservation laws of the analysis pipeline over
// randomized (but legal) traces, parameterised by seed.

#include <gtest/gtest.h>

#include <map>
#include <utility>
#include <vector>

#include "src/analysis/classify.h"
#include "src/analysis/histogram.h"
#include "src/analysis/provenance.h"
#include "src/analysis/scatter.h"
#include "src/analysis/summary.h"
#include "src/sim/random.h"
#include "src/trace/file.h"
#include "tests/trace_sweep.h"

namespace tempo {
namespace {

// Generates a random-but-legal trace: per timer, a state machine of
// set / re-set / cancel / expire events in time order.
struct RandomTrace {
  std::vector<TraceRecord> records;
  CallsiteRegistry callsites;
  size_t arming_records = 0;
};

RandomTrace Generate(uint64_t seed, size_t steps) {
  RandomTrace trace;
  Rng rng(seed);
  const CallsiteId sites[4] = {
      trace.callsites.Intern("a/one"), trace.callsites.Intern("b/two"),
      trace.callsites.Intern("c/three"),
      trace.callsites.Intern("c/child", trace.callsites.Intern("c/three"))};
  constexpr int kTimers = 12;
  struct TimerState {
    bool pending = false;
    SimDuration timeout = 0;
    SimTime expiry = 0;
  };
  TimerState timers[kTimers];
  SimTime now = 0;

  for (size_t step = 0; step < steps; ++step) {
    now += rng.UniformInt(0, 50 * kMillisecond);
    const int t = static_cast<int>(rng.UniformInt(0, kTimers - 1));
    TimerState& state = timers[t];
    const double roll = rng.NextDouble();
    TraceRecord r;
    r.timestamp = now;
    r.timer = static_cast<TimerId>(t + 1);
    r.callsite = sites[t % 4];
    r.pid = static_cast<Pid>(t % 3);
    if (r.pid != kKernelPid) {
      r.flags = kFlagUser;
    }
    if (!state.pending || roll < 0.5) {
      // Arm (or re-arm in place).
      r.op = TimerOp::kSet;
      r.timeout = rng.UniformInt(kMillisecond, 2 * kSecond);
      r.expiry = now + r.timeout;
      state = {true, r.timeout, r.expiry};
      ++trace.arming_records;
    } else if (roll < 0.75) {
      r.op = TimerOp::kCancel;
      state.pending = false;
    } else {
      // Expire: jump time to the expiry.
      now = std::max(now, state.expiry);
      r.timestamp = now;
      r.op = TimerOp::kExpire;
      state.pending = false;
    }
    trace.records.push_back(r);
  }
  return trace;
}

// The episode groups the classifier reads, in key order.
std::vector<std::vector<Episode>> Groups(const std::vector<TraceRecord>& records) {
  EpisodeBuilder builder;
  builder.Accumulate(records);
  std::vector<std::vector<Episode>> groups;
  builder.ForEachGroup([&groups](const std::vector<Episode>& group) { groups.push_back(group); });
  return groups;
}

class AnalysisPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(AnalysisPropertyTest, EpisodesConserveArmingRecords) {
  const RandomTrace trace = Generate(GetParam(), 3000);
  EpisodeBuilder builder;
  builder.Accumulate(trace.records);
  const auto episodes = std::move(builder).Finish();
  // Every arming record opens exactly one episode.
  EXPECT_EQ(episodes.size(), trace.arming_records);
  // End states partition the episodes.
  std::map<EpisodeEnd, size_t> ends;
  for (const Episode& e : episodes) {
    ++ends[e.end];
  }
  size_t total = 0;
  for (const auto& [end, count] : ends) {
    total += count;
  }
  EXPECT_EQ(total, episodes.size());
}

TEST_P(AnalysisPropertyTest, EpisodesNeverEndBeforeTheyStart) {
  const RandomTrace trace = Generate(GetParam(), 3000);
  EpisodeBuilder builder;
  builder.Accumulate(trace.records);
  for (const Episode& e : std::move(builder).Finish()) {
    EXPECT_GE(e.end_time, e.set_time);
    if (e.end == EpisodeEnd::kExpired) {
      // Expiry never happens before the requested timeout in our generator.
      EXPECT_GE(e.held(), e.timeout - kMillisecond);
    }
  }
}

TEST_P(AnalysisPropertyTest, SummaryMatchesManualCounts) {
  const RandomTrace trace = Generate(GetParam(), 3000);
  SummaryPass pass("prop");
  pass.Accumulate(trace.records);
  const TraceSummary s = pass.Result();
  EXPECT_EQ(s.accesses, trace.records.size());
  EXPECT_EQ(s.set, trace.arming_records);
  size_t cancels = 0;
  size_t expiries = 0;
  for (const auto& r : trace.records) {
    cancels += r.op == TimerOp::kCancel ? 1 : 0;
    expiries += r.op == TimerOp::kExpire ? 1 : 0;
  }
  EXPECT_EQ(s.canceled, cancels);
  EXPECT_EQ(s.expired, expiries);
  EXPECT_LE(s.concurrency, s.timers);
  EXPECT_EQ(s.user_space + s.kernel, s.accesses);
}

TEST_P(AnalysisPropertyTest, GroupsPartitionEpisodes) {
  const RandomTrace trace = Generate(GetParam(), 3000);
  EpisodeBuilder builder;
  builder.Accumulate(trace.records);
  const auto episodes = std::move(builder).Finish();
  size_t grouped = 0;
  for (const auto& group : Groups(trace.records)) {
    EXPECT_FALSE(group.empty());
    for (size_t i = 1; i < group.size(); ++i) {
      EXPECT_GE(group[i].set_time, group[i - 1].set_time) << "group not time-ordered";
    }
    grouped += group.size();
  }
  EXPECT_EQ(grouped, episodes.size());
}

TEST_P(AnalysisPropertyTest, ClassifierCoversEveryGroup) {
  const RandomTrace trace = Generate(GetParam(), 3000);
  const auto groups = Groups(trace.records);
  ClassifyPass pass;
  pass.Accumulate(trace.records);
  const auto classes = pass.Result();
  EXPECT_EQ(classes.size(), groups.size());
  size_t classified_episodes = 0;
  for (const auto& c : classes) {
    classified_episodes += c.episodes;
  }
  size_t total_episodes = 0;
  for (const auto& g : groups) {
    total_episodes += g.size();
  }
  EXPECT_EQ(classified_episodes, total_episodes);
}

TEST_P(AnalysisPropertyTest, HistogramCountsAndCoverageConsistent) {
  const RandomTrace trace = Generate(GetParam(), 3000);
  HistogramOptions options;
  options.min_percent = 0.0;  // keep everything
  HistogramPass pass(options);
  pass.Accumulate(trace.records);
  const ValueHistogram h = pass.Result();
  EXPECT_EQ(h.total_sets, trace.arming_records);
  uint64_t bucketed = 0;
  double percent_sum = 0;
  for (const auto& bucket : h.buckets) {
    bucketed += bucket.count;
    percent_sum += bucket.percent;
  }
  EXPECT_EQ(bucketed, h.total_sets);  // zero threshold: full coverage
  EXPECT_NEAR(percent_sum, 100.0, 1e-6);
  EXPECT_NEAR(h.coverage_percent, 100.0, 1e-6);
}

TEST_P(AnalysisPropertyTest, HistogramThresholdOnlyDropsBuckets) {
  const RandomTrace trace = Generate(GetParam(), 3000);
  HistogramOptions all;
  all.min_percent = 0.0;
  HistogramOptions thresholded;
  thresholded.min_percent = 5.0;
  HistogramPass full_pass(all);
  HistogramPass cut_pass(thresholded);
  full_pass.Accumulate(trace.records);
  cut_pass.Accumulate(trace.records);
  const ValueHistogram full = full_pass.Result();
  const ValueHistogram cut = cut_pass.Result();
  EXPECT_LE(cut.buckets.size(), full.buckets.size());
  EXPECT_LE(cut.coverage_percent, full.coverage_percent + 1e-9);
  for (const auto& bucket : cut.buckets) {
    EXPECT_GE(bucket.percent, 5.0);
  }
}

TEST_P(AnalysisPropertyTest, ScatterCountsBoundedByEndedEpisodes) {
  const RandomTrace trace = Generate(GetParam(), 3000);
  ScatterOptions options;
  ScatterPass pass(options);
  pass.Accumulate(trace.records);
  const auto points = pass.Result();
  uint64_t plotted = 0;
  for (const auto& p : points) {
    plotted += p.count;
    EXPECT_GT(p.timeout_seconds, 0.0);
    EXPECT_LE(p.percent, options.max_percent + options.percent_bucket);
  }
  size_t ended_with_timeout = 0;
  EpisodeBuilder builder;
  builder.Accumulate(trace.records);
  for (const Episode& e : std::move(builder).Finish()) {
    if (e.timeout > 0 &&
        (e.end == EpisodeEnd::kExpired || e.end == EpisodeEnd::kCanceled)) {
      ++ended_with_timeout;
    }
  }
  EXPECT_LE(plotted, ended_with_timeout);
}

TEST_P(AnalysisPropertyTest, ProvenanceConservesOps) {
  const RandomTrace trace = Generate(GetParam(), 3000);
  ProvenancePass pass(&trace.callsites);
  pass.Accumulate(trace.records);
  uint64_t total = 0;
  for (const auto& root : pass.Result()) {
    total += root.subtree_ops;
  }
  EXPECT_EQ(total, trace.records.size());
}

TEST_P(AnalysisPropertyTest, SerializationPreservesEveryAnalysis) {
  const RandomTrace trace = Generate(GetParam(), 1500);
  const Sweep loaded = SweepBytes(SerializeTrace(trace.records, trace.callsites));
  ASSERT_TRUE(loaded.ok());
  SummaryPass summary_before("x");
  SummaryPass summary_after("x");
  summary_before.Accumulate(trace.records);
  summary_after.Accumulate(loaded.records);
  const TraceSummary before = summary_before.Result();
  const TraceSummary after = summary_after.Result();
  EXPECT_EQ(before.accesses, after.accesses);
  EXPECT_EQ(before.set, after.set);
  EXPECT_EQ(before.expired, after.expired);
  EXPECT_EQ(before.canceled, after.canceled);
  EXPECT_EQ(before.concurrency, after.concurrency);
  ClassifyPass classify_before;
  ClassifyPass classify_after;
  classify_before.Accumulate(trace.records);
  classify_after.Accumulate(loaded.records);
  const auto classes_before = classify_before.Result();
  const auto classes_after = classify_after.Result();
  ASSERT_EQ(classes_before.size(), classes_after.size());
  for (size_t i = 0; i < classes_before.size(); ++i) {
    EXPECT_EQ(static_cast<int>(classes_before[i].pattern),
              static_cast<int>(classes_after[i].pattern));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AnalysisPropertyTest,
                         ::testing::Values(1u, 7u, 42u, 1337u, 9001u, 31337u, 99999u,
                                           123456u));

}  // namespace
}  // namespace tempo

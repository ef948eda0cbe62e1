// Differential test of the timer-lifetime folds: EpisodeBuilder (its
// finished episodes, its groups and the classes ClassifyPass reads off
// them), SlackState, SummaryPass and RatesPass, against the map-based
// folds they replaced, kept here as references. Seeded random traces are
// split at
// random chunk boundaries, each range is folded on its own, and the ranges
// are merged back in trace order under a random bracketing, so the merge
// rule runs on ranges that were themselves merged. Every result must equal
// the reference's serial fold.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <random>
#include <span>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "src/analysis/classify.h"
#include "src/analysis/latency.h"
#include "src/analysis/lifetimes.h"
#include "src/analysis/rates.h"
#include "src/analysis/summary.h"

namespace tempo {
namespace {

// --- reference folds ---

// The episode builder as it was before its flat rewrite: a std::map from
// timer to the index of its open episode and a std::map of first ops.
class ReferenceEpisodeBuilder {
 public:
  void Accumulate(std::span<const TraceRecord> records) {
    for (const TraceRecord& r : records) {
      if (r.op != TimerOp::kInit) {
        first_op_.emplace(r.timer, FirstOp{r.op, r.timestamp, r.flags});
      }
      switch (r.op) {
        case TimerOp::kInit:
          break;
        case TimerOp::kSet:
        case TimerOp::kBlock: {
          Close(r.timer, r.timestamp, EpisodeEnd::kReset);
          Episode e;
          e.timer = r.timer;
          e.callsite = r.callsite;
          e.pid = r.pid;
          e.tid = r.tid;
          e.set_time = r.timestamp;
          e.timeout = r.timeout;
          e.canonical = CanonicalTimeout(r);
          e.flags = r.flags;
          open_.emplace(r.timer, episodes_.size());
          episodes_.push_back(e);
          break;
        }
        case TimerOp::kCancel:
          Close(r.timer, r.timestamp, EpisodeEnd::kCanceled);
          break;
        case TimerOp::kExpire:
          Close(r.timer, r.timestamp, EpisodeEnd::kExpired);
          break;
        case TimerOp::kUnblock:
          Close(r.timer, r.timestamp,
                (r.flags & kFlagWaitSatisfied) != 0 ? EpisodeEnd::kCanceled
                                                    : EpisodeEnd::kExpired);
          break;
      }
    }
    if (!records.empty()) {
      last_ts_ = records.back().timestamp;
      any_records_ = true;
    }
  }

  std::vector<Episode> Finish() && {
    if (any_records_) {
      for (const auto& [timer, index] : open_) {
        episodes_[index].end_time = last_ts_;
      }
    }
    return std::move(episodes_);
  }

 private:
  struct FirstOp {
    TimerOp op;
    SimTime timestamp;
    uint16_t flags;
  };

  void Close(TimerId timer, SimTime at, EpisodeEnd end) {
    auto it = open_.find(timer);
    if (it == open_.end()) {
      return;
    }
    episodes_[it->second].end_time = at;
    episodes_[it->second].end = end;
    open_.erase(it);
  }

  std::vector<Episode> episodes_;
  std::map<TimerId, size_t> open_;
  std::map<TimerId, FirstOp> first_op_;
  SimTime last_ts_ = 0;
  bool any_records_ = false;
};

// The grouping as it was: a std::map of vectors keyed by cluster, each
// group stable-sorted by set time.
std::vector<std::vector<Episode>> ReferenceGroups(std::vector<Episode> episodes) {
  std::map<ClusterKey, std::vector<Episode>> groups;
  for (Episode& e : episodes) {
    groups[ClusterKeyFor(e)].push_back(std::move(e));
  }
  std::vector<std::vector<Episode>> out;
  for (auto& [key, group] : groups) {
    std::stable_sort(group.begin(), group.end(),
                     [](const Episode& x, const Episode& y) { return x.set_time < y.set_time; });
    out.push_back(std::move(group));
  }
  return out;
}

// The slack fold as it was, over std::maps, with its aggregates public.
struct ReferenceSlack {
  struct OpenArm {
    SimTime set_time;
    SimDuration timeout;
    SimTime expiry;
    CallsiteId callsite;
    Pid pid;
    uint16_t flags;
  };

  SlackHist total;
  SlackHist firing;
  SlackHist skew;
  std::array<SlackHist, kSlackClassCount> classes;
  uint64_t canceled = 0;
  uint64_t rearmed = 0;
  uint64_t early = 0;
  uint64_t unmatched = 0;
  std::map<Pid, SlackBlame> by_pid;
  std::map<CallsiteId, SlackBlame> by_callsite;
  std::map<TimerId, OpenArm> open;

  void CloseFired(const OpenArm& arm, SimTime fire) {
    const SimTime requested =
        arm.timeout > 0 ? arm.set_time + arm.timeout
                        : (arm.expiry > 0 ? arm.expiry : arm.set_time);
    const SimTime deadline = arm.expiry > 0 ? arm.expiry : requested;
    uint64_t slack = 0;
    if (fire >= requested) {
      slack = static_cast<uint64_t>(fire - requested);
    } else {
      ++early;
    }
    const uint64_t firing_ns = fire > deadline ? static_cast<uint64_t>(fire - deadline) : 0;
    const uint64_t skew_ns =
        deadline > requested ? static_cast<uint64_t>(deadline - requested) : 0;
    total.Record(slack);
    firing.Record(firing_ns);
    skew.Record(skew_ns);
    classes[static_cast<size_t>(SlackClassFor(arm.flags))].Record(slack);
    by_pid[arm.pid].Add(slack);
    by_callsite[arm.callsite].Add(slack);
  }

  void Accumulate(std::span<const TraceRecord> records) {
    for (const TraceRecord& r : records) {
      switch (r.op) {
        case TimerOp::kInit:
          break;
        case TimerOp::kSet:
        case TimerOp::kBlock: {
          auto [it, inserted] = open.try_emplace(r.timer);
          if (!inserted) {
            ++rearmed;
          }
          it->second = OpenArm{r.timestamp, r.timeout, r.expiry, r.callsite, r.pid, r.flags};
          break;
        }
        case TimerOp::kCancel:
        case TimerOp::kExpire:
        case TimerOp::kUnblock: {
          auto it = open.find(r.timer);
          if (it == open.end()) {
            ++unmatched;
            break;
          }
          const bool fired =
              r.op == TimerOp::kExpire ||
              (r.op == TimerOp::kUnblock && (r.flags & kFlagWaitSatisfied) == 0);
          if (fired) {
            CloseFired(it->second, r.timestamp);
          } else {
            ++canceled;
          }
          open.erase(it);
          break;
        }
      }
    }
  }
};

// The summary pass as it was before its per-timer state moved into a
// TimerJoin: a hash set of every timer id and one of the outstanding
// timers. Its serial fold is the oracle for `timers` and `concurrency`.
class ReferenceSummary {
 public:
  void Accumulate(std::span<const TraceRecord> records) {
    for (const TraceRecord& r : records) {
      ++s_.accesses;
      ++(r.is_user() ? s_.user_space : s_.kernel);
      if (r.timer != kInvalidTimerId) {
        timers_.insert(r.timer);
      }
      switch (r.op) {
        case TimerOp::kInit:
          break;
        case TimerOp::kSet:
        case TimerOp::kBlock:
          ++s_.set;
          open_.insert(r.timer);
          s_.concurrency = std::max<uint64_t>(s_.concurrency, open_.size());
          break;
        case TimerOp::kExpire:
          ++s_.expired;
          open_.erase(r.timer);
          break;
        case TimerOp::kCancel:
          ++s_.canceled;
          open_.erase(r.timer);
          break;
        case TimerOp::kUnblock:
          ++((r.flags & kFlagWaitSatisfied) != 0 ? s_.canceled : s_.expired);
          open_.erase(r.timer);
          break;
      }
    }
  }

  TraceSummary Result() const {
    TraceSummary s = s_;
    s.timers = timers_.size();
    return s;
  }

 private:
  TraceSummary s_;
  std::unordered_set<TimerId> timers_;
  std::unordered_set<TimerId> open_;
};

// The rates pass as it was before it resolved pids to series: a label
// string per record, std::map windows per label, and a map of the counts
// sitting on the running maximum timestamp, cleared when it moves.
class ReferenceRates {
 public:
  ReferenceRates(RateGrouping grouping, RateOptions options)
      : grouping_(std::move(grouping)), options_(options) {}

  void Accumulate(std::span<const TraceRecord> records) {
    for (const TraceRecord& r : records) {
      if (options_.end == 0 && (!any_records_ || r.timestamp > max_ts_)) {
        max_ts_ = r.timestamp;
        any_records_ = true;
        at_max_.clear();
      }
      if (r.timestamp < options_.start || (options_.end > 0 && r.timestamp >= options_.end)) {
        continue;
      }
      if (options_.sets_only && r.op != TimerOp::kSet && r.op != TimerOp::kBlock) {
        continue;
      }
      std::string label = grouping_.default_label;
      if (r.pid == kKernelPid) {
        label = grouping_.kernel_label;
      } else if (const auto it = grouping_.pid_labels.find(r.pid);
                 it != grouping_.pid_labels.end()) {
        label = it->second;
      }
      if (label.empty()) {
        continue;
      }
      ++windows_[label][static_cast<uint64_t>((r.timestamp - options_.start) / options_.window)];
      if (options_.end == 0) {
        ++at_max_[label];
      }
    }
  }

  std::vector<RateSeries> Result() const {
    const SimTime end = options_.end > 0 ? options_.end : (any_records_ ? max_ts_ : 0);
    if (end <= options_.start) {
      return {};
    }
    const size_t window_count = static_cast<size_t>(
        (end - options_.start + options_.window - 1) / options_.window);
    std::vector<RateSeries> out;
    for (auto [label, sparse] : windows_) {
      if (options_.end == 0 && at_max_.count(label) != 0) {
        auto it = sparse.find(static_cast<uint64_t>((max_ts_ - options_.start) / options_.window));
        it->second -= at_max_.at(label);
        if (it->second == 0) {
          sparse.erase(it);
        }
      }
      if (sparse.empty()) {
        continue;
      }
      RateSeries series{label, std::vector<uint64_t>(window_count, 0)};
      for (const auto& [idx, count] : sparse) {
        if (idx < window_count) {
          series.per_window[idx] = count;
        }
      }
      out.push_back(std::move(series));
    }
    return out;
  }

 private:
  RateGrouping grouping_;
  RateOptions options_;
  std::map<std::string, std::map<uint64_t, uint64_t>> windows_;
  std::map<std::string, uint64_t> at_max_;
  SimTime max_ts_ = 0;
  bool any_records_ = false;
};

// --- random traces ---

// Records with every shape the folds distinguish: re-arms of pending
// timers, blocks ended by satisfied and timed-out unblocks, init records,
// closes with no arm, dynamic-alloc ids recycled across call-sites, pids
// and tids, runs of equal timestamps and a few steps back in time.
std::vector<TraceRecord> RandomTrace(uint64_t seed, size_t count) {
  std::mt19937_64 rng(seed);
  auto roll = [&rng](uint64_t n) { return rng() % n; };
  constexpr TimerId kStableTimers = 10;
  constexpr TimerId kDynamicBase = 1000;
  constexpr TimerId kDynamicIds = 12;
  constexpr std::array<SimDuration, 4> kValues = {kMillisecond, 10 * kMillisecond,
                                                  250 * kMillisecond, kSecond};
  std::vector<TraceRecord> out;
  out.reserve(count);
  SimTime now = 10 * kSecond;
  while (out.size() < count) {
    const uint64_t step = roll(100);
    if (step < 3) {
      now -= static_cast<SimTime>(1 + roll(5)) * kMillisecond;  // out of order
    } else if (step >= 55) {
      now += static_cast<SimTime>(roll(20)) * kMillisecond / 4;  // ties when 0
    }
    TraceRecord r;
    r.timestamp = now;
    const bool dynamic = roll(3) == 0;
    r.timer = dynamic ? kDynamicBase + roll(kDynamicIds) : 1 + roll(kStableTimers);
    r.callsite = static_cast<CallsiteId>(roll(4));
    r.pid = static_cast<Pid>(roll(3));
    r.tid = static_cast<Tid>(roll(3));
    const uint64_t kind = roll(100);
    if (kind < 5) {
      r.op = TimerOp::kInit;
    } else if (kind < 55) {
      r.op = roll(5) == 0 ? TimerOp::kBlock : TimerOp::kSet;
      // Each stable timer mostly re-uses one value, so groups classify
      // into real patterns rather than all landing on "other".
      const SimDuration value = roll(4) == 0 ? kValues[roll(kValues.size())]
                                             : kValues[r.timer % kValues.size()];
      r.timeout = value + static_cast<SimDuration>(roll(3)) * kMillisecond / 2;
      if (roll(40) == 0) {
        r.timeout = 0;
      }
      r.expiry = roll(30) == 0 ? 0 : now + r.timeout + static_cast<SimTime>(roll(4)) * kMillisecond;
      if (dynamic) {
        r.flags |= kFlagDynamicAlloc;
      }
      const uint16_t extra[] = {kFlagJiffyWheel, kFlagDeferrable, kFlagRounded, kFlagHighRes};
      for (const uint16_t flag : extra) {
        if (roll(4) == 0) {
          r.flags |= flag;
        }
      }
    } else if (kind < 70) {
      r.op = TimerOp::kCancel;
    } else if (kind < 90) {
      r.op = TimerOp::kExpire;
    } else {
      r.op = TimerOp::kUnblock;
      if (roll(2) == 0) {
        r.flags |= kFlagWaitSatisfied;
      }
    }
    if (r.pid != kKernelPid) {
      r.flags |= kFlagUser;
    }
    out.push_back(r);
  }
  return out;
}

// RandomTrace's shapes plus what only the counting folds tell apart: arms
// and closes of kInvalidTimerId, and timers that only ever see init
// records (ids 5000 and up, which no other record uses).
std::vector<TraceRecord> CountingTrace(uint64_t seed, size_t count) {
  std::vector<TraceRecord> records = RandomTrace(seed, count);
  std::mt19937_64 rng(seed ^ 0x5eedULL);
  for (TraceRecord& r : records) {
    const uint64_t roll = rng() % 20;
    if (r.op == TimerOp::kInit) {
      r.timer = roll < 12 ? 5000 + rng() % 16 : (roll < 14 ? kInvalidTimerId : r.timer);
    } else if (roll == 0) {
      r.timer = kInvalidTimerId;
    }
  }
  return records;
}

// Cut points splitting `size` records into `ranges` contiguous ranges,
// empty ranges included.
std::vector<size_t> RandomCuts(std::mt19937_64& rng, size_t size, size_t ranges) {
  std::vector<size_t> cuts = {0, size};
  for (size_t i = 1; i < ranges; ++i) {
    cuts.push_back(rng() % (size + 1));
  }
  std::sort(cuts.begin(), cuts.end());
  return cuts;
}

// Merges states[lo, hi) in trace order under a random bracketing; every
// Merge call joins two adjacent ranges, the earlier one on the left.
template <typename State>
State MergeRanges(std::vector<State>& states, size_t lo, size_t hi, std::mt19937_64& rng) {
  if (hi - lo == 1) {
    return std::move(states[lo]);
  }
  const size_t mid = lo + 1 + rng() % (hi - lo - 1);
  State left = MergeRanges(states, lo, mid, rng);
  State right = MergeRanges(states, mid, hi, rng);
  left.Merge(std::move(right));
  return left;
}

// Passes merge through AnalysisPass&&, so their states travel as
// pointers.
template <typename Pass>
std::unique_ptr<Pass> MergePasses(std::vector<std::unique_ptr<Pass>>& passes, size_t lo,
                                  size_t hi, std::mt19937_64& rng) {
  if (hi - lo == 1) {
    return std::move(passes[lo]);
  }
  const size_t mid = lo + 1 + rng() % (hi - lo - 1);
  std::unique_ptr<Pass> left = MergePasses(passes, lo, mid, rng);
  std::unique_ptr<Pass> right = MergePasses(passes, mid, hi, rng);
  left->Merge(std::move(*right));
  return left;
}

void ExpectSameEpisode(const Episode& want, const Episode& got, const std::string& where) {
  EXPECT_EQ(want.timer, got.timer) << where;
  EXPECT_EQ(want.callsite, got.callsite) << where;
  EXPECT_EQ(want.pid, got.pid) << where;
  EXPECT_EQ(want.tid, got.tid) << where;
  EXPECT_EQ(want.set_time, got.set_time) << where;
  EXPECT_EQ(want.timeout, got.timeout) << where;
  EXPECT_EQ(want.canonical, got.canonical) << where;
  EXPECT_EQ(want.end_time, got.end_time) << where;
  EXPECT_EQ(want.end, got.end) << where;
  EXPECT_EQ(want.flags, got.flags) << where;
}

void ExpectSameClass(const TimerClass& want, const TimerClass& got, const std::string& where) {
  EXPECT_EQ(want.key, got.key) << where;
  EXPECT_EQ(want.callsite, got.callsite) << where;
  EXPECT_EQ(want.pid, got.pid) << where;
  EXPECT_EQ(want.pattern, got.pattern) << where;
  EXPECT_EQ(want.episodes, got.episodes) << where;
  EXPECT_EQ(want.dominant_timeout, got.dominant_timeout) << where;
  EXPECT_EQ(want.user, got.user) << where;
}

void ExpectSameSlack(const ReferenceSlack& want, const SlackState& got,
                     const std::string& where) {
  EXPECT_EQ(want.total, got.total()) << where;
  EXPECT_EQ(want.firing, got.firing()) << where;
  EXPECT_EQ(want.skew, got.skew()) << where;
  for (size_t c = 0; c < kSlackClassCount; ++c) {
    EXPECT_EQ(want.classes[c], got.cls(static_cast<SlackClass>(c))) << where;
  }
  EXPECT_EQ(want.canceled, got.canceled_spans()) << where;
  EXPECT_EQ(want.rearmed, got.rearmed_spans()) << where;
  EXPECT_EQ(want.early, got.early_fires()) << where;
  EXPECT_EQ(want.unmatched, got.unmatched_closes()) << where;
  EXPECT_EQ(want.open.size(), got.open_spans()) << where;
  EXPECT_EQ(want.by_pid, got.by_pid()) << where;
  EXPECT_EQ(want.by_callsite, got.by_callsite()) << where;
}

TEST(EpisodeFoldTest, MatchesReferenceFolds) {
  std::mt19937_64 rng(2008);
  size_t classified_groups = 0;
  size_t open_at_end = 0;
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    const std::vector<TraceRecord> records = RandomTrace(seed, 500 + (seed % 7) * 400);
    const std::span<const TraceRecord> all(records.data(), records.size());

    ReferenceEpisodeBuilder ref_builder;
    ref_builder.Accumulate(all);
    const std::vector<Episode> ref_episodes = std::move(ref_builder).Finish();
    const auto ref_groups = ReferenceGroups(ref_episodes);
    ReferenceSlack ref_slack;
    ref_slack.Accumulate(all);
    SlackState serial_slack;
    serial_slack.Accumulate(all);

    for (int split = 0; split < 4; ++split) {
      const size_t ranges = 1 + rng() % 9;
      const std::vector<size_t> cuts = RandomCuts(rng, records.size(), ranges);
      std::vector<EpisodeBuilder> builders(ranges);
      std::vector<std::unique_ptr<ClassifyPass>> passes;
      std::vector<SlackState> slacks(ranges);
      for (size_t i = 0; i < ranges; ++i) {
        const auto range = all.subspan(cuts[i], cuts[i + 1] - cuts[i]);
        builders[i].Accumulate(range);
        passes.push_back(std::make_unique<ClassifyPass>());
        passes.back()->Accumulate(range);
        slacks[i].Accumulate(range);
      }
      const std::string where =
          "seed " + std::to_string(seed) + ", " + std::to_string(ranges) + " ranges";

      EpisodeBuilder merged = MergeRanges(builders, 0, ranges, rng);
      // The builder's own groups, before Finish: the reference groups, with
      // open episodes still lacking their end time.
      size_t group_index = 0;
      merged.ForEachGroup([&](const std::vector<Episode>& group) {
        ASSERT_LT(group_index, ref_groups.size()) << where;
        const std::string at = where + ", group " + std::to_string(group_index);
        ASSERT_EQ(ref_groups[group_index].size(), group.size()) << at;
        for (size_t i = 0; i < group.size(); ++i) {
          Episode want = ref_groups[group_index][i];
          if (want.end == EpisodeEnd::kOpen) {
            want.end_time = group[i].end_time;
          }
          ExpectSameEpisode(want, group[i], at);
        }
        ++group_index;
      });
      EXPECT_EQ(ref_groups.size(), group_index) << where;
      const std::vector<Episode> episodes = std::move(merged).Finish();
      ASSERT_EQ(ref_episodes.size(), episodes.size()) << where;
      for (size_t i = 0; i < episodes.size(); ++i) {
        ExpectSameEpisode(ref_episodes[i], episodes[i],
                          where + ", episode " + std::to_string(i));
        open_at_end += episodes[i].end == EpisodeEnd::kOpen ? 1 : 0;
      }

      const std::vector<TimerClass> classes = MergePasses(passes, 0, ranges, rng)->Result();
      ASSERT_EQ(ref_groups.size(), classes.size()) << where;
      for (size_t g = 0; g < classes.size(); ++g) {
        ExpectSameClass(ClassifyGroup(ref_groups[g], ClassifyOptions{}), classes[g],
                        where + ", group " + std::to_string(g));
        classified_groups += classes[g].pattern != UsagePattern::kSingleUse ? 1 : 0;
      }

      const SlackState slack = MergeRanges(slacks, 0, ranges, rng);
      ExpectSameSlack(ref_slack, slack, where);
      EXPECT_TRUE(slack == serial_slack) << where;
    }
  }
  // The traces must reach the interesting states.
  EXPECT_GT(classified_groups, 100u);
  EXPECT_GT(open_at_end, 100u);
}

void ExpectSameSummary(const TraceSummary& want, const TraceSummary& got,
                       const std::string& where) {
  EXPECT_EQ(want.timers, got.timers) << where;
  EXPECT_EQ(want.concurrency, got.concurrency) << where;
  EXPECT_EQ(want.accesses, got.accesses) << where;
  EXPECT_EQ(want.user_space, got.user_space) << where;
  EXPECT_EQ(want.kernel, got.kernel) << where;
  EXPECT_EQ(want.set, got.set) << where;
  EXPECT_EQ(want.expired, got.expired) << where;
  EXPECT_EQ(want.canceled, got.canceled) << where;
}

void ExpectSameRates(const std::vector<RateSeries>& want, const std::vector<RateSeries>& got,
                     const std::string& where) {
  ASSERT_EQ(want.size(), got.size()) << where;
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(want[i].label, got[i].label) << where;
    EXPECT_EQ(want[i].per_window, got[i].per_window) << where << ", " << want[i].label;
  }
}

TEST(EpisodeFoldTest, SummaryAndRatesMatchReferenceFolds) {
  std::mt19937_64 rng(2008);
  // Two pids share a label; the second grouping drops unlisted pids.
  RateGrouping named;
  named.pid_labels[1] = "Outlook";
  RateGrouping shared;
  shared.pid_labels[1] = "App";
  shared.pid_labels[2] = "App";
  shared.default_label = "";
  size_t init_only = 0;
  size_t invalid_arms = 0;
  size_t tied_ends = 0;
  size_t series_checked = 0;
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    std::vector<TraceRecord> records = CountingTrace(seed, 300 + (seed % 5) * 300);
    const std::span<const TraceRecord> all(records.data(), records.size());
    std::unordered_set<TimerId> touched;
    for (const TraceRecord& r : records) {
      invalid_arms += r.timer == kInvalidTimerId && IsArm(r.op) ? 1 : 0;
      if (r.op != TimerOp::kInit) {
        touched.insert(r.timer);
      }
    }
    for (const TraceRecord& r : records) {
      init_only += r.op == TimerOp::kInit && r.timer != kInvalidTimerId &&
                           touched.count(r.timer) == 0
                       ? 1
                       : 0;
    }

    ReferenceSummary ref_summary;
    ref_summary.Accumulate(all);
    const TraceSummary want_summary = ref_summary.Result();

    // The rate folds assume time order, as every recorded trace has.
    std::vector<TraceRecord> ordered = records;
    std::stable_sort(ordered.begin(), ordered.end(),
                     [](const TraceRecord& x, const TraceRecord& y) {
                       return x.timestamp < y.timestamp;
                     });
    const std::span<const TraceRecord> timeline(ordered.data(), ordered.size());
    tied_ends += ordered.size() > 1 &&
                         ordered[ordered.size() - 2].timestamp == ordered.back().timestamp
                     ? 1
                     : 0;
    const SimTime first = ordered.front().timestamp;
    const SimTime last = ordered.back().timestamp;
    const std::vector<std::pair<RateGrouping, RateOptions>> rate_cases = {
        {named, RateOptions{100 * kMillisecond, 0, 0, true}},
        {shared, RateOptions{250 * kMillisecond, first + (last - first) / 3, 0, false}},
        {named, RateOptions{kSecond, 0, first + (last - first) / 2, true}},
        {shared, RateOptions{70 * kMillisecond, first + (last - first) / 4,
                             first + 3 * (last - first) / 4, false}},
    };
    std::vector<std::vector<RateSeries>> want_rates;
    for (const auto& [grouping, options] : rate_cases) {
      ReferenceRates ref(grouping, options);
      ref.Accumulate(timeline);
      want_rates.push_back(ref.Result());
      series_checked += want_rates.back().size();
    }

    for (int split = 0; split < 4; ++split) {
      const size_t ranges = 1 + rng() % 9;
      const std::vector<size_t> cuts = RandomCuts(rng, records.size(), ranges);
      const std::string where =
          "seed " + std::to_string(seed) + ", " + std::to_string(ranges) + " ranges";

      std::vector<std::unique_ptr<SummaryPass>> summaries;
      for (size_t i = 0; i < ranges; ++i) {
        summaries.push_back(std::make_unique<SummaryPass>("t"));
        summaries.back()->Accumulate(all.subspan(cuts[i], cuts[i + 1] - cuts[i]));
      }
      ExpectSameSummary(want_summary, MergePasses(summaries, 0, ranges, rng)->Result(), where);

      for (size_t c = 0; c < rate_cases.size(); ++c) {
        std::vector<std::unique_ptr<RatesPass>> rates;
        for (size_t i = 0; i < ranges; ++i) {
          rates.push_back(std::make_unique<RatesPass>(rate_cases[c].first, rate_cases[c].second));
          rates.back()->Accumulate(timeline.subspan(cuts[i], cuts[i + 1] - cuts[i]));
        }
        ExpectSameRates(want_rates[c], MergePasses(rates, 0, ranges, rng)->Result(),
                        where + ", rate case " + std::to_string(c));
      }
    }
  }
  // The traces must reach the interesting states.
  EXPECT_GT(init_only, 100u);
  EXPECT_GT(invalid_arms, 100u);
  EXPECT_GT(tied_ends, 10u);
  EXPECT_GT(series_checked, 200u);
}

TEST(EpisodeFoldTest, InitOnlyRangeLeavesOpenTimersOpen) {
  // A range that only initializes a timer does no operation on it: a
  // timer the earlier range left armed stays armed, and a timer new to
  // the join gains no first op.
  TraceRecord set;
  set.timestamp = kSecond;
  set.timer = 7;
  set.op = TimerOp::kSet;
  TimerJoin<int> earlier;
  earlier.Arm(earlier.Touch(set), 1);
  TimerJoin<int> later;
  later.Note(7);
  later.Note(8);
  int closed = 0;
  earlier.Merge(
      std::move(later), [&closed](int, const FirstOp&) { ++closed; },
      [](int value) { return value; });
  EXPECT_EQ(closed, 0);
  EXPECT_EQ(earlier.open_count(), 1u);
  EXPECT_EQ(earlier.size(), 1u);
  EXPECT_EQ(earlier.noted(), 1u);

  // Through SummaryPass: timer 7 is still outstanding when timer 9 arms.
  TraceRecord init = set;
  init.op = TimerOp::kInit;
  TraceRecord other = set;
  other.timer = 9;
  std::vector<std::unique_ptr<SummaryPass>> passes;
  for (const TraceRecord& r : {set, init, other}) {
    passes.push_back(std::make_unique<SummaryPass>("t"));
    passes.back()->Accumulate(std::span<const TraceRecord>(&r, 1));
  }
  passes[0]->Merge(std::move(*passes[1]));
  passes[0]->Merge(std::move(*passes[2]));
  EXPECT_EQ(passes[0]->Result().concurrency, 2u);
  EXPECT_EQ(passes[0]->Result().timers, 2u);
}

}  // namespace
}  // namespace tempo

// Differential test of the timer-lifetime folds: EpisodeBuilder (its
// finished episodes, its groups and the classes ClassifyPass reads off
// them) and SlackState, against the map-based folds they replaced, kept
// here as references. Seeded random traces are split at
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
#include <utility>
#include <vector>

#include "src/analysis/classify.h"
#include "src/analysis/latency.h"
#include "src/analysis/lifetimes.h"

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

// ClassifyPass merges through AnalysisPass&&, so its states travel as
// pointers.
std::unique_ptr<ClassifyPass> MergePasses(std::vector<std::unique_ptr<ClassifyPass>>& passes,
                                          size_t lo, size_t hi, std::mt19937_64& rng) {
  if (hi - lo == 1) {
    return std::move(passes[lo]);
  }
  const size_t mid = lo + 1 + rng() % (hi - lo - 1);
  std::unique_ptr<ClassifyPass> left = MergePasses(passes, lo, mid, rng);
  std::unique_ptr<ClassifyPass> right = MergePasses(passes, mid, hi, rng);
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

}  // namespace
}  // namespace tempo

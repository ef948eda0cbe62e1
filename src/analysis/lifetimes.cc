#include "src/analysis/lifetimes.h"

#include <algorithm>
#include <utility>

namespace tempo {

SimDuration CanonicalTimeout(const TraceRecord& r) {
  // Kernel-side wheel timers: the tracepoint reads the absolute jiffy
  // expiry, so the canonical relative value is the exact jiffy delta.
  if (r.op == TimerOp::kSet && !r.is_user() && (r.flags & kFlagJiffyWheel) != 0 &&
      r.expiry > 0) {
    const Jiffies delta = TimeToJiffies(r.expiry) - TimeToJiffies(r.timestamp);
    return JiffiesToTime(delta);
  }
  return r.timeout;
}

ClusterKey ClusterKeyFor(const Episode& episode) {
  if ((episode.flags & kFlagDynamicAlloc) != 0) {
    // No stable identity: cluster by call-site and thread (Section 3.3).
    return ClusterKey{(uint64_t{1} << 63) | episode.callsite,
                      (static_cast<uint64_t>(static_cast<uint32_t>(episode.pid)) << 32) |
                          static_cast<uint32_t>(episode.tid)};
  }
  return ClusterKey{episode.timer, 0};
}

EpisodeEnd EndFor(TimerOp op, uint16_t flags) {
  switch (op) {
    case TimerOp::kSet:
    case TimerOp::kBlock:
      return EpisodeEnd::kReset;
    case TimerOp::kCancel:
      return EpisodeEnd::kCanceled;
    case TimerOp::kExpire:
      return EpisodeEnd::kExpired;
    case TimerOp::kUnblock:
      return (flags & kFlagWaitSatisfied) != 0 ? EpisodeEnd::kCanceled : EpisodeEnd::kExpired;
    case TimerOp::kInit:
      break;
  }
  return EpisodeEnd::kOpen;
}

namespace {

uint64_t MixClusterKey(const ClusterKey& key) {
  return MixKey(key.a ^ (key.b * 0x9e3779b97f4a7c15ULL));
}

}  // namespace

uint32_t EpisodeBuilder::GroupFor(const ClusterKey& key) {
  if (2 * (groups_.size() + 1) > cluster_slots_.size()) {
    // Grow the index and re-file every group.
    cluster_slots_.assign(std::max<size_t>(16, 2 * cluster_slots_.size()), kNoGroup);
    const size_t mask = cluster_slots_.size() - 1;
    for (uint32_t g = 0; g < groups_.size(); ++g) {
      size_t i = MixClusterKey(groups_[g].key) & mask;
      while (cluster_slots_[i] != kNoGroup) {
        i = (i + 1) & mask;
      }
      cluster_slots_[i] = g;
    }
  }
  const size_t mask = cluster_slots_.size() - 1;
  size_t i = MixClusterKey(key) & mask;
  while (cluster_slots_[i] != kNoGroup) {
    if (groups_[cluster_slots_[i]].key == key) {
      return cluster_slots_[i];
    }
    i = (i + 1) & mask;
  }
  cluster_slots_[i] = static_cast<uint32_t>(groups_.size());
  groups_.push_back(Group{key, {}, {}, true});
  return cluster_slots_[i];
}

EpisodeBuilder::EpisodeRef EpisodeBuilder::File(const TraceRecord& r, EpisodeRef hint) {
  Episode e;
  e.timer = r.timer;
  e.callsite = r.callsite;
  e.pid = r.pid;
  e.tid = r.tid;
  e.set_time = r.timestamp;
  e.timeout = r.timeout;
  e.canonical = CanonicalTimeout(r);
  e.flags = r.flags;
  const ClusterKey key = ClusterKeyFor(e);
  // The timer's last arm usually filed under the same key.
  const uint32_t g = hint.group < groups_.size() && groups_[hint.group].key == key
                         ? hint.group
                         : GroupFor(key);
  Group& group = groups_[g];
  if (!group.episodes.empty() && e.set_time < group.episodes.back().set_time) {
    group.sorted = false;
  }
  group.episodes.push_back(e);
  group.created.push_back(created_++);
  return EpisodeRef{g, static_cast<uint32_t>(group.episodes.size() - 1)};
}

void EpisodeBuilder::End(EpisodeRef ref, TimerOp op, uint16_t flags, SimTime at) {
  Episode& e = groups_[ref.group].episodes[ref.pos];
  e.end_time = at;
  e.end = EndFor(op, flags);
}

void EpisodeBuilder::Accumulate(std::span<const TraceRecord> records) {
  for (const TraceRecord& r : records) {
    if (r.op == TimerOp::kInit) {
      continue;
    }
    auto& entry = join_.Touch(r);
    if (entry.open) {
      // Any operation on a pending timer ends its episode; arming it
      // again ends it as a reset.
      End(entry.value, r.op, r.flags, r.timestamp);
      if (!IsArm(r.op)) {
        join_.Disarm(entry);
      }
    }
    if (IsArm(r.op)) {
      join_.Arm(entry, File(r, entry.value));
    }
  }
  if (!records.empty()) {
    last_ts_ = records.back().timestamp;
    any_records_ = true;
  }
}

void EpisodeBuilder::Merge(EpisodeBuilder&& later) {
  if (!any_records_) {
    *this = std::move(later);
    return;
  }
  if (!later.any_records_) {
    return;
  }
  // Append each of the later range's groups to ours: all of its episodes
  // were created after all of ours. placed[g] is where group g's first
  // episode landed.
  std::vector<EpisodeRef> placed(later.groups_.size());
  for (size_t g = 0; g < later.groups_.size(); ++g) {
    Group& theirs = later.groups_[g];
    const uint32_t index = GroupFor(theirs.key);
    Group& mine = groups_[index];
    placed[g] = EpisodeRef{index, static_cast<uint32_t>(mine.episodes.size())};
    for (size_t& created : theirs.created) {
      created += created_;
    }
    if (mine.episodes.empty()) {
      mine.episodes = std::move(theirs.episodes);
      mine.created = std::move(theirs.created);
      mine.sorted = theirs.sorted;
      continue;
    }
    mine.sorted = mine.sorted && theirs.sorted &&
                  theirs.episodes.front().set_time >= mine.episodes.back().set_time;
    mine.episodes.insert(mine.episodes.end(), theirs.episodes.begin(), theirs.episodes.end());
    mine.created.insert(mine.created.end(), theirs.created.begin(), theirs.created.end());
    theirs = Group{};  // release the copied episodes now, not with `later`
  }
  join_.Merge(
      std::move(later.join_),
      [this](EpisodeRef open, const FirstOp& first) {
        End(open, first.op, first.flags, first.timestamp);
      },
      [&placed](EpisodeRef ref) {
        return ref.group == kNoGroup
                   ? ref
                   : EpisodeRef{placed[ref.group].group, placed[ref.group].pos + ref.pos};
      });
  created_ += later.created_;
  last_ts_ = later.last_ts_;
}

std::vector<uint32_t> EpisodeBuilder::KeyOrder() const {
  std::vector<uint32_t> order(groups_.size());
  for (uint32_t g = 0; g < order.size(); ++g) {
    order[g] = g;
  }
  std::sort(order.begin(), order.end(),
            [this](uint32_t x, uint32_t y) { return groups_[x].key < groups_[y].key; });
  return order;
}

std::vector<Episode> EpisodeBuilder::SortedBySetTime(const std::vector<Episode>& group) {
  std::vector<Episode> sorted = group;
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const Episode& x, const Episode& y) { return x.set_time < y.set_time; });
  return sorted;
}

std::vector<Episode> EpisodeBuilder::Finish() && {
  // Scatter each group back to creation order. Episodes still open keep
  // kOpen; give them the last timestamp so held() is meaningful.
  std::vector<Episode> out(created_);
  for (const Group& group : groups_) {
    for (size_t i = 0; i < group.episodes.size(); ++i) {
      Episode& e = out[group.created[i]];
      e = group.episodes[i];
      if (e.end == EpisodeEnd::kOpen) {
        e.end_time = last_ts_;
      }
    }
  }
  return out;
}

}  // namespace tempo

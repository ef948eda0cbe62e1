// Timer lifetime reconstruction.
//
// Raw traces are flat streams of set/cancel/expire (and block/unblock)
// records. The first analysis step rebuilds per-timer "episodes": one arm
// operation and how it ended — expiry, cancellation, or being re-armed
// in place (mod_timer / KeSetTimer on a pending timer). Episodes are the
// input to the usage-pattern classifier (Figure 2) and the expiry/cancel
// scatter plots (Figures 8-11).
//
// Identity: Linux timers have stable struct identity, so the timer id is
// enough. Vista KTIMERs are mostly allocated per call (kFlagDynamicAlloc),
// so episodes are additionally clustered by call-site + thread, exactly the
// post-processing the paper describes in Section 3.3.

#ifndef TEMPO_SRC_ANALYSIS_LIFETIMES_H_
#define TEMPO_SRC_ANALYSIS_LIFETIMES_H_

#include <algorithm>
#include <bit>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "src/oslinux/jiffies.h"
#include "src/sim/time.h"
#include "src/trace/record.h"

namespace tempo {

// How an episode ended.
enum class EpisodeEnd : uint8_t {
  kExpired = 0,   // ran to expiry and the notification fired
  kCanceled = 1,  // deleted before expiry
  kReset = 2,     // re-armed in place before expiry (no cancel record)
  kOpen = 3,      // still pending at the end of the trace
};

// One armed-timer episode.
struct Episode {
  TimerId timer = kInvalidTimerId;
  CallsiteId callsite = kUnknownCallsite;
  Pid pid = kKernelPid;
  Tid tid = 0;
  SimTime set_time = 0;
  SimDuration timeout = 0;  // observed relative timeout (with jitter)
  // Canonical timeout for value bucketing: kernel wheel timers are read
  // back as exact jiffy deltas (expires - jiffies, as the paper's Linux
  // instrumentation reports them); everything else keeps the exact
  // observed value.
  SimDuration canonical = 0;
  SimTime end_time = 0;
  EpisodeEnd end = EpisodeEnd::kOpen;
  uint16_t flags = 0;  // flags of the arming record

  bool user() const { return (flags & kFlagUser) != 0; }
  // Duration the timer actually ran before ending, clamped to the
  // SimDuration range: decoded times may lie anywhere in int64_t.
  SimDuration held() const {
    const auto span = static_cast<SimDuration>(
        std::min<uint64_t>(Distance(end_time, set_time), INT64_MAX));
    return end_time >= set_time ? span : -span;
  }
  // Fraction of the requested timeout that elapsed before the episode
  // ended; > 1 for late deliveries. Returns 0 for non-positive timeouts.
  double fraction() const {
    if (timeout <= 0) {
      return 0.0;
    }
    return static_cast<double>(held()) / static_cast<double>(timeout);
  }
};

// Key used to group episodes of "the same logical timer". For stable
// (Linux-style) timers this is the timer id; dynamic-identity records
// cluster by (callsite, pid, tid).
struct ClusterKey {
  uint64_t a = 0;
  uint64_t b = 0;
  bool operator==(const ClusterKey&) const = default;
  bool operator<(const ClusterKey& o) const { return a != o.a ? a < o.a : b < o.b; }
};

// Computes the grouping key for an episode.
ClusterKey ClusterKeyFor(const Episode& episode);

// The canonical (bucketable) timeout of an arming record: exact jiffy
// delta for Linux wheel timers, the observed value otherwise.
SimDuration CanonicalTimeout(const TraceRecord& record);

// First non-init operation on a timer within one range of the trace: what
// closes an entry that a preceding range left open on the same timer.
struct FirstOp {
  SimTime timestamp = 0;
  uint16_t flags = 0;
  TimerOp op = TimerOp::kInit;  // kInit: no operation yet
  bool operator==(const FirstOp&) const = default;
};

// True for the ops that arm a timer.
inline bool IsArm(TimerOp op) { return op == TimerOp::kSet || op == TimerOp::kBlock; }

// How an episode still pending when `op` (with `flags`) hits its timer
// ends: a re-arm resets it, a cancel or satisfied unblock cancels it, an
// expiry or timed-out unblock expires it. The one op-to-end rule of every
// lifetime fold.
EpisodeEnd EndFor(TimerOp op, uint16_t flags);

// Spreads a key's bits for the open-addressed tables below.
inline uint64_t MixKey(uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  return x;
}

// The per-timer join under the lifetime folds (EpisodeBuilder, SlackState
// and SummaryPass): an open-addressed table keyed by timer id. Each entry
// holds the timer's first non-init operation in the folded range and,
// while the timer is armed, its open entry. A timer seen only in init
// records has an entry with no first op (Note). Entries are never removed,
// so probing needs no tombstones; an entry's `value` outlives its open
// state, which lets a fold keep a per-timer hint there.
//
// Merge holds the rule that makes folds over adjacent ranges combine
// exactly: an entry we left open is closed by the later range's first
// operation on that timer, and our first op wins.
template <typename Open>
class TimerJoin {
 public:
  struct Entry {
    TimerId timer = kInvalidTimerId;
    FirstOp first;       // op kInit: no operation yet
    bool used = false;   // false marks a free slot
    bool open = false;
    Open value{};
  };

  // The entry of r's timer, created if absent; r becomes its first op if
  // it has none. `r` must not be a kInit record. The reference is valid
  // until the next Touch, Note or Merge.
  Entry& Touch(const TraceRecord& r) {
    Entry& e = Claim(r.timer);
    if (e.first.op == TimerOp::kInit) {
      e.first = FirstOp{r.timestamp, r.flags, r.op};
      ++size_;
      --noted_;
    }
    return e;
  }

  // Records that `timer` exists: an init record, which is no operation.
  void Note(TimerId timer) { Claim(timer); }

  // Opens (or re-opens) `e` with `value`.
  void Arm(Entry& e, const Open& value) {
    open_ += e.open ? 0 : 1;
    e.open = true;
    e.value = value;
  }
  // Closes `e`, which must be open.
  void Disarm(Entry& e) {
    e.open = false;
    --open_;
  }

  // The entry of `timer`, or null when the join has none.
  const Entry* Find(TimerId timer) const {
    if (slots_.empty()) {
      return nullptr;
    }
    const Entry& e = slots_[Slot(timer)];
    return e.used ? &e : nullptr;
  }

  size_t size() const { return size_; }     // timers with a first op
  size_t noted() const { return noted_; }   // timers seen only in init records
  size_t open_count() const { return open_; }

  // Absorbs the join of the range right after ours. Each entry we hold
  // open that `later` touched is passed to close(value, later's first op)
  // and closed; every entry then takes later's open state, with later's
  // values mapped through adopt(value). A timer with no first op here
  // also takes its first op and value from `later`.
  template <typename Close, typename Adopt>
  void Merge(TimerJoin&& later, Close&& close, Adopt&& adopt) {
    const size_t total = size_ + noted_ + later.size_ + later.noted_;
    if (2 * total > slots_.size()) {
      Rehash(std::bit_ceil(std::max<size_t>(16, 2 * total)));
    }
    for (const Entry& theirs : later.slots_) {
      if (!theirs.used) {
        continue;
      }
      Entry& mine = Claim(theirs.timer);
      if (theirs.first.op == TimerOp::kInit) {
        continue;  // the later range only noted it
      }
      const bool fresh = mine.first.op == TimerOp::kInit;
      if (fresh) {
        mine.first = theirs.first;
        ++size_;
        --noted_;
      } else if (mine.open) {
        close(mine.value, theirs.first);
        Disarm(mine);
      }
      if (fresh || theirs.open) {
        mine.value = adopt(theirs.value);
      }
      if (theirs.open) {
        mine.open = true;
        ++open_;
      }
    }
  }

  // Equal when both hold the same timers, first ops and open values,
  // whatever the table layout.
  bool operator==(const TimerJoin& o) const {
    if (size_ != o.size_ || noted_ != o.noted_ || open_ != o.open_) {
      return false;
    }
    for (const Entry& e : slots_) {
      if (!e.used) {
        continue;
      }
      const Entry& f = o.slots_[o.Slot(e.timer)];
      if (!f.used || !(f.first == e.first) || f.open != e.open ||
          (e.open && !(f.value == e.value))) {
        return false;
      }
    }
    return true;
  }

 private:
  // Index of the slot holding `timer`, or of the free slot where it
  // belongs. The table must not be empty.
  size_t Slot(TimerId timer) const {
    const size_t mask = slots_.size() - 1;
    size_t i = static_cast<size_t>(MixKey(timer)) & mask;
    while (slots_[i].used && slots_[i].timer != timer) {
      i = (i + 1) & mask;
    }
    return i;
  }

  // The entry of `timer`, created with no first op if absent.
  Entry& Claim(TimerId timer) {
    if (2 * (size_ + noted_ + 1) > slots_.size()) {
      Rehash(std::max<size_t>(16, 2 * slots_.size()));
    }
    Entry& e = slots_[Slot(timer)];
    if (!e.used) {
      e.used = true;
      e.timer = timer;
      ++noted_;
    }
    return e;
  }

  void Rehash(size_t capacity) {
    std::vector<Entry> old = std::exchange(slots_, std::vector<Entry>(capacity));
    for (const Entry& e : old) {
      if (e.used) {
        slots_[Slot(e.timer)] = e;
      }
    }
  }

  std::vector<Entry> slots_;  // power-of-two capacity, at most half full
  size_t size_ = 0;
  size_t noted_ = 0;
  size_t open_ = 0;
};

// Streaming, mergeable episode construction — the shared engine under
// every episode-consuming AnalysisPass (classify, scatter, origins,
// histogram, blame). Feed time-ordered record batches with Accumulate; to
// combine two builders that covered adjacent ranges of the same trace,
// call left.Merge(std::move(right)) where `right` saw strictly later
// records.
//
// Each episode is filed under its ClusterKey when its timer is armed, so
// the groups the classifier reads are built as records stream in: a
// group holds its episodes contiguously, in creation order. The timer's
// join entry keeps the group of its last arm as a hint, which spares the
// cluster lookup for a timer armed under the same key again.
//
// The merge is exact: an episode left open at the end of the left range
// is closed by the right range's first operation on that timer (a re-arm
// closes it as kReset, a cancel as kCanceled, ...), which is precisely
// what the serial scan would have done, so Finish() returns the same
// episode vector — in the same order — as a single-pass build. Merging
// into an empty builder is a move; any other merge appends per group.
class EpisodeBuilder {
 public:
  // Folds one batch of time-ordered records into the state.
  void Accumulate(std::span<const TraceRecord> records);

  // Absorbs a builder that accumulated the records immediately after
  // this one's.
  void Merge(EpisodeBuilder&& later);

  // Calls fn(group) for each cluster's episodes as a const
  // std::vector<Episode>&, in ClusterKey order, each group in stable
  // set-time order (only a trace with out-of-order timestamps needs a
  // sorted copy). Episodes still open have end kOpen and no end_time.
  template <typename Fn>
  void ForEachGroup(Fn&& fn) const {
    for (const uint32_t g : KeyOrder()) {
      const Group& group = groups_[g];
      if (group.sorted) {
        fn(group.episodes);
      } else {
        fn(SortedBySetTime(group.episodes));
      }
    }
  }

  // Finalizes: every episode in creation order; episodes still open get
  // the last timestamp as end_time (end stays kOpen). The builder is
  // consumed.
  std::vector<Episode> Finish() &&;

 private:
  static constexpr uint32_t kNoGroup = UINT32_MAX;

  // Where an episode lives: groups_[group].episodes[pos]. A group holds
  // fewer than 2^32 episodes in any trace that fits in memory.
  struct EpisodeRef {
    uint32_t group = kNoGroup;
    uint32_t pos = 0;
    bool operator==(const EpisodeRef&) const = default;
  };

  struct Group {
    ClusterKey key;
    std::vector<Episode> episodes;  // creation order
    std::vector<size_t> created;    // creation index of each episode
    bool sorted = true;             // set times nondecreasing
  };

  EpisodeRef File(const TraceRecord& r, EpisodeRef hint);
  uint32_t GroupFor(const ClusterKey& key);
  void End(EpisodeRef ref, TimerOp op, uint16_t flags, SimTime at);
  std::vector<uint32_t> KeyOrder() const;
  static std::vector<Episode> SortedBySetTime(const std::vector<Episode>& group);

  std::vector<Group> groups_;
  std::vector<uint32_t> cluster_slots_;  // open-addressed ClusterKey -> group
  TimerJoin<EpisodeRef> join_;
  size_t created_ = 0;  // episodes filed
  SimTime last_ts_ = 0;
  bool any_records_ = false;
};

}  // namespace tempo

#endif  // TEMPO_SRC_ANALYSIS_LIFETIMES_H_

#include "src/timer/lawn.h"

#include <algorithm>
#include <tuple>
#include <utility>

namespace tempo {

LawnTimerQueue::LawnTimerQueue(SimDuration granularity, const std::string& stats_label)
    : granularity_(granularity > 0 ? granularity : kMillisecond),
      stats_(TimerQueueStats::For(stats_label)) {}

SimTime LawnTimerQueue::Quantise(SimTime expiry, SimTime now,
                                 uint64_t* ttl_ticks) const {
  const SimTime ttl = expiry > now ? expiry - now : 0;
  // Round up, and never below one tick: the effective expiry must land
  // strictly ahead of the watermark or Advance could loop (and a timer must
  // never fire before its requested expiry).
  uint64_t ticks = (static_cast<uint64_t>(ttl) + static_cast<uint64_t>(granularity_) - 1) /
                   static_cast<uint64_t>(granularity_);
  if (ticks == 0) {
    ticks = 1;
  }
  *ttl_ticks = ticks;
  return now + static_cast<SimTime>(ticks * static_cast<uint64_t>(granularity_));
}

uint32_t LawnTimerQueue::QueueForTtl(uint64_t ttl_ticks) {
  auto [it, inserted] =
      queue_for_ttl_.try_emplace(ttl_ticks, static_cast<uint32_t>(queues_.size()));
  if (inserted) {
    queues_.emplace_back();
    queues_.back().ttl_ticks = ttl_ticks;
  }
  return it->second;
}

uint32_t LawnTimerQueue::AllocNode() {
  if (!free_nodes_.empty()) {
    const uint32_t n = free_nodes_.back();
    free_nodes_.pop_back();
    return n;
  }
  pool_.emplace_back();
  return static_cast<uint32_t>(pool_.size() - 1);
}

void LawnTimerQueue::FreeNode(uint32_t node) {
  pool_[node].cb = nullptr;  // release captured resources while parked
  free_nodes_.push_back(node);
}

void LawnTimerQueue::Append(uint32_t queue_index, uint32_t node) {
  TtlQueue& q = queues_[queue_index];
  Node& n = pool_[node];
  n.queue = queue_index;
  n.next = kNil;
  n.prev = q.tail;
  if (q.tail != kNil) {
    pool_[q.tail].next = node;
  } else {
    q.head = node;
  }
  q.tail = node;
  if (q.live++ == 0) {
    q.active_pos = static_cast<uint32_t>(active_.size());
    active_.push_back(queue_index);
  }
}

void LawnTimerQueue::Unlink(uint32_t node) {
  Node& n = pool_[node];
  TtlQueue& q = queues_[n.queue];
  if (n.prev != kNil) {
    pool_[n.prev].next = n.next;
  } else {
    q.head = n.next;
  }
  if (n.next != kNil) {
    pool_[n.next].prev = n.prev;
  } else {
    q.tail = n.prev;
  }
  if (--q.live == 0) {
    // Swap-pop the queue out of the active set in O(1).
    const uint32_t pos = q.active_pos;
    const uint32_t moved = active_.back();
    active_[pos] = moved;
    queues_[moved].active_pos = pos;
    active_.pop_back();
    q.active_pos = kNil;
  }
}

void LawnTimerQueue::NoteRemovalAt(SimTime expiry) {
  if (size_ == 0) {
    cached_min_ = kNeverTime;
    cache_valid_ = true;
  } else if (cache_valid_ && expiry <= cached_min_) {
    // Removed an entry at the minimum; another head may share the expiry,
    // so the true minimum is unknown until the next lazy rescan.
    cache_valid_ = false;
  }
}

TimerHandle LawnTimerQueue::Schedule(SimTime expiry, TimerQueueCallback cb) {
  obs::ScopedProbe probe(stats_.set_cycles);
  stats_.set_ops->Inc();
  const TimerHandle handle = next_handle_++;
  uint64_t ttl_ticks = 0;
  const SimTime effective = Quantise(expiry, now_, &ttl_ticks);
  const uint32_t queue_index = QueueForTtl(ttl_ticks);
  const uint32_t node = AllocNode();
  Node& n = pool_[node];
  n.expiry = effective;
  n.handle = handle;
  n.cb = std::move(cb);
  Append(queue_index, node);
  index_.emplace(handle, node);
  ++size_;
  // Inserting can only lower the minimum; an invalid cache stays invalid
  // (the pending rescan will see this node too).
  if (cache_valid_ && effective < cached_min_) {
    cached_min_ = effective;
  }
  return handle;
}

bool LawnTimerQueue::Cancel(TimerHandle handle) {
  obs::ScopedProbe probe(stats_.cancel_cycles);
  stats_.cancel_ops->Inc();
  auto it = index_.find(handle);
  if (it == index_.end()) {
    return false;
  }
  const uint32_t node = it->second;
  const SimTime expiry = pool_[node].expiry;
  Unlink(node);
  FreeNode(node);
  index_.erase(it);
  --size_;
  NoteRemovalAt(expiry);
  return true;
}

TimerHandle LawnTimerQueue::Reschedule(TimerHandle handle, SimTime new_expiry) {
  obs::ScopedProbe probe(stats_.set_cycles);
  auto it = index_.find(handle);
  if (it == index_.end()) {
    return kInvalidTimerHandle;
  }
  stats_.resched_ops->Inc();
  const uint32_t node = it->second;
  const SimTime old_expiry = pool_[node].expiry;
  Unlink(node);
  // Removal side of the move: the old expiry may have been the cached
  // minimum; the true minimum is unknown until the next lazy rescan.
  if (cache_valid_ && old_expiry <= cached_min_) {
    cache_valid_ = false;
  }
  uint64_t ttl_ticks = 0;
  const SimTime effective = Quantise(new_expiry, now_, &ttl_ticks);
  pool_[node].expiry = effective;
  // Re-appending keeps the FIFO invariant: the tail of a TTL queue always
  // carries the largest effective expiry, because `effective` here equals
  // what a fresh Schedule at the current watermark would compute.
  Append(QueueForTtl(ttl_ticks), node);
  if (cache_valid_ && effective < cached_min_) {
    cached_min_ = effective;
  }
  return handle;
}

size_t LawnTimerQueue::AdvanceTo(SimTime now) {
  obs::ScopedProbe probe(stats_.advance_cycles);
  now_ = now;
  // Phase 1: detach the due prefix of every active FIFO. Heads are the
  // oldest (smallest-expiry) entries of each queue, so each FIFO's due set
  // is exactly its prefix. Detach fully before running callbacks so a
  // callback that schedules or cancels cannot corrupt the traversal; a
  // detached timer can no longer be canceled (same semantics as the wheels).
  std::vector<uint32_t> due;
  due.swap(due_scratch_);
  for (size_t i = 0; i < active_.size();) {
    TtlQueue& q = queues_[active_[i]];
    while (q.head != kNil && pool_[q.head].expiry <= now) {
      const uint32_t node = q.head;
      q.head = pool_[node].next;
      if (q.head != kNil) {
        pool_[q.head].prev = kNil;
      } else {
        q.tail = kNil;
      }
      --q.live;
      index_.erase(pool_[node].handle);
      due.push_back(node);
    }
    if (q.live == 0) {
      const uint32_t moved = active_.back();
      active_[i] = moved;
      queues_[moved].active_pos = static_cast<uint32_t>(i);
      active_.pop_back();
      q.active_pos = kNil;
      // Re-examine index i: it now holds the swapped-in queue.
    } else {
      ++i;
    }
  }
  const size_t fired = due.size();
  size_ -= fired;
  // Invalidate before the callbacks run: the minimum may just have fired.
  // Callbacks that Schedule against an invalid cache leave it invalid,
  // which the lazy rescan fixes.
  if (size_ == 0) {
    cached_min_ = kNeverTime;
    cache_valid_ = true;
  } else if (cache_valid_ && cached_min_ <= now) {
    cache_valid_ = false;
  }
  // Phase 2: global expiry order across queues. Ties break by handle, i.e.
  // scheduling order, so runs are deterministic for equal expiries.
  std::sort(due.begin(), due.end(), [this](uint32_t a, uint32_t b) {
    return std::tie(pool_[a].expiry, pool_[a].handle) <
           std::tie(pool_[b].expiry, pool_[b].handle);
  });
  for (const uint32_t node : due) {
    const TimerHandle handle = pool_[node].handle;
    TimerQueueCallback cb = std::move(pool_[node].cb);
    FreeNode(node);  // recycle before the callback so it can re-schedule
    cb(handle);
  }
  due.clear();
  due_scratch_.swap(due);  // keep the scratch capacity for the next call
  stats_.expire_ops->Inc(fired);
  return fired;
}

SimTime LawnTimerQueue::NextExpiry() const {
  if (size_ == 0) {
    return kNeverTime;
  }
  if (!cache_valid_) {
    obs::ScopedProbe probe(stats_.refresh_cycles);
    // The minimum pending expiry is the minimum over the active FIFO heads:
    // O(k) in the number of distinct TTL buckets, independent of Size().
    SimTime best = kNeverTime;
    for (const uint32_t queue_index : active_) {
      best = std::min(best, pool_[queues_[queue_index].head].expiry);
    }
    cached_min_ = best;
    cache_valid_ = true;
    ++head_scans_;
  }
  return cached_min_;
}

size_t LawnTimerQueue::MemoryBytes() const {
  return pool_.size() * sizeof(Node) + free_nodes_.capacity() * sizeof(uint32_t) +
         queues_.capacity() * sizeof(TtlQueue) + active_.capacity() * sizeof(uint32_t) +
         due_scratch_.capacity() * sizeof(uint32_t) +
         timer_internal::NodeMapBytes(queue_for_ttl_) +
         timer_internal::NodeMapBytes(index_);
}

}  // namespace tempo

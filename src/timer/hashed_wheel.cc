#include "src/timer/hashed_wheel.h"

#include <algorithm>
#include <utility>

namespace tempo {

HashedWheelTimerQueue::HashedWheelTimerQueue(SimDuration granularity, size_t slots,
                                             const std::string& stats_label)
    : granularity_(granularity > 0 ? granularity : kMillisecond),
      slots_(slots > 0 ? slots : 256),
      stats_(TimerQueueStats::For(stats_label)) {}

uint64_t HashedWheelTimerQueue::TickFor(SimTime expiry) const {
  if (expiry < 0) {
    expiry = 0;
  }
  // Round up so a timer never fires before its expiry.
  uint64_t tick = (static_cast<uint64_t>(expiry) + static_cast<uint64_t>(granularity_) - 1) /
                  static_cast<uint64_t>(granularity_);
  // Entries must land strictly ahead of the hand or they would wait a full
  // revolution; expired entries fire on the next tick instead.
  return std::max(tick, current_tick_ + 1);
}

TimerHandle HashedWheelTimerQueue::Schedule(SimTime expiry, TimerQueueCallback cb) {
  obs::ScopedProbe probe(stats_.set_cycles);
  stats_.set_ops->Inc();
  const TimerHandle handle = next_handle_++;
  const uint64_t tick = TickFor(expiry);
  const size_t slot = static_cast<size_t>(tick % slots_.size());
  slots_[slot].push_back(Node{tick, handle, std::move(cb)});
  auto it = std::prev(slots_[slot].end());
  index_.emplace(handle, std::make_pair(slot, it));
  ++size_;
  if (cache_valid_ && tick < cached_next_tick_) {
    cached_next_tick_ = tick;
  }
  return handle;
}

bool HashedWheelTimerQueue::Cancel(TimerHandle handle) {
  obs::ScopedProbe probe(stats_.cancel_cycles);
  stats_.cancel_ops->Inc();
  auto it = index_.find(handle);
  if (it == index_.end()) {
    return false;
  }
  const uint64_t tick = it->second.second->tick;
  slots_[it->second.first].erase(it->second.second);
  index_.erase(it);
  --size_;
  if (size_ == 0) {
    cached_next_tick_ = UINT64_MAX;
    cache_valid_ = true;
  } else if (cache_valid_ && tick <= cached_next_tick_) {
    // Removed an entry at the minimum; another node may share the tick, so
    // the true minimum is unknown until the next lazy rescan.
    cache_valid_ = false;
  }
  return true;
}

TimerHandle HashedWheelTimerQueue::Reschedule(TimerHandle handle, SimTime new_expiry) {
  obs::ScopedProbe probe(stats_.set_cycles);
  auto it = index_.find(handle);
  if (it == index_.end()) {
    return kInvalidTimerHandle;
  }
  stats_.resched_ops->Inc();
  const uint64_t old_tick = it->second.second->tick;
  const uint64_t tick = TickFor(new_expiry);
  if (tick != old_tick) {
    // Splice the node into its new slot without touching the callback.
    Slot& from = slots_[it->second.first];
    const size_t to_slot = static_cast<size_t>(tick % slots_.size());
    slots_[to_slot].splice(slots_[to_slot].end(), from, it->second.second);
    it->second.first = to_slot;
    it->second.second->tick = tick;
    // Removal side of the move: taking away a node at the cached minimum
    // leaves the true minimum unknown until the next lazy rescan.
    if (cache_valid_ && old_tick <= cached_next_tick_) {
      cache_valid_ = false;
    }
    // Insertion side: an earlier tick can only lower a still-valid cache.
    if (cache_valid_ && tick < cached_next_tick_) {
      cached_next_tick_ = tick;
    }
  }
  return handle;
}

size_t HashedWheelTimerQueue::MemoryBytes() const {
  size_t bytes = slots_.capacity() * sizeof(Slot);
  for (const Slot& slot : slots_) {
    bytes += timer_internal::ListBytes(slot);
  }
  return bytes + timer_internal::NodeMapBytes(index_);
}

size_t HashedWheelTimerQueue::AdvanceTo(SimTime now) {
  obs::ScopedProbe probe(stats_.advance_cycles);
  const uint64_t target_tick =
      static_cast<uint64_t>(std::max<SimTime>(now, 0)) / static_cast<uint64_t>(granularity_);
  size_t fired = 0;
  while (current_tick_ < target_tick) {
    ++current_tick_;
    Slot& slot = slots_[static_cast<size_t>(current_tick_ % slots_.size())];
    // Detach due entries first so callbacks that schedule or cancel other
    // timers cannot invalidate the traversal.
    Slot due;
    for (auto it = slot.begin(); it != slot.end();) {
      ++entries_examined_;
      if (it->tick == current_tick_) {
        auto next = std::next(it);
        index_.erase(it->handle);
        due.splice(due.end(), slot, it);
        --size_;
        it = next;
      } else {
        ++it;  // a later revolution; leave in place
      }
    }
    // The hand may have passed (and fired) the cached minimum; anything
    // the callbacks scheduled lands strictly ahead of the hand, so the
    // cache is refreshable only by a rescan.
    if (size_ == 0) {
      cached_next_tick_ = UINT64_MAX;
      cache_valid_ = true;
    } else if (cache_valid_ && cached_next_tick_ <= current_tick_) {
      cache_valid_ = false;
    }
    for (Node& node : due) {
      node.cb(node.handle);
      ++fired;
    }
  }
  stats_.expire_ops->Inc(fired);
  return fired;
}

uint64_t HashedWheelTimerQueue::NextTickScan() const {
  // A wheel has no cheap global minimum; scan forward slot by slot from the
  // hand, tracking the best candidate. This is the cost dynticks pays on a
  // wheel-based design, one of the motivations for hrtimers' tree.
  uint64_t best = UINT64_MAX;
  for (size_t offset = 1; offset <= slots_.size(); ++offset) {
    const uint64_t tick_floor = current_tick_ + offset;
    const Slot& slot = slots_[static_cast<size_t>(tick_floor % slots_.size())];
    for (const Node& n : slot) {
      best = std::min(best, n.tick);
    }
    if (best <= tick_floor) {
      break;  // nothing in later slots can beat a hit in this revolution
    }
  }
  return best;
}

SimTime HashedWheelTimerQueue::NextExpiry() const {
  if (size_ == 0) {
    return kNeverTime;
  }
  if (!cache_valid_) {
    obs::ScopedProbe probe(stats_.refresh_cycles);
    cached_next_tick_ = NextTickScan();
    cache_valid_ = true;
    ++next_expiry_scans_;
  }
  return static_cast<SimTime>(cached_next_tick_ * static_cast<uint64_t>(granularity_));
}

SimTime HashedWheelTimerQueue::NextExpiryScan() const {
  if (size_ == 0) {
    return kNeverTime;
  }
  return static_cast<SimTime>(NextTickScan() * static_cast<uint64_t>(granularity_));
}

}  // namespace tempo

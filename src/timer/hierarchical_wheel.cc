#include "src/timer/hierarchical_wheel.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <utility>

namespace tempo {

namespace {

constexpr uint64_t kL0Mask = (1u << 8) - 1;
constexpr uint64_t kLnMask = (1u << 6) - 1;

// Bit offset of each level's slot index within the tick counter.
constexpr int kLevelShift[4] = {0, 8, 14, 20};
// Exclusive horizon (in ticks of delta) each level can hold.
constexpr uint64_t kLevelHorizon[4] = {1ull << 8, 1ull << 14, 1ull << 20, 1ull << 26};
// First flat slot index of each level: level 0's 256 slots, then 64 a level.
constexpr size_t kSlotBase[4] = {0, 256, 320, 384};

// Handle layout: node index + 1 in the low bits, generation above it.
constexpr int kIndexBits = 28;
constexpr int kGenerationBits = 20;
constexpr uint64_t kIndexMask = (uint64_t{1} << kIndexBits) - 1;
constexpr uint32_t kGenerationMask = (uint32_t{1} << kGenerationBits) - 1;
constexpr uint32_t kMaxNodes = static_cast<uint32_t>(kIndexMask);

TimerHandle HandleOf(uint32_t index, uint32_t generation) {
  return (static_cast<uint64_t>(generation) << kIndexBits) | (uint64_t{index} + 1);
}

}  // namespace

HierarchicalWheelTimerQueue::HierarchicalWheelTimerQueue(SimDuration granularity,
                                                         const std::string& stats_label)
    : granularity_(granularity > 0 ? granularity : kMillisecond),
      stats_(TimerQueueStats::For(stats_label)) {}

uint64_t HierarchicalWheelTimerQueue::TickFor(SimTime expiry) const {
  if (expiry < 0) {
    expiry = 0;
  }
  const uint64_t tick = (static_cast<uint64_t>(expiry) + static_cast<uint64_t>(granularity_) - 1) /
                        static_cast<uint64_t>(granularity_);
  return std::max(tick, current_tick_ + 1);
}

uint32_t HierarchicalWheelTimerQueue::Find(TimerHandle handle) const {
  const uint64_t low = handle & kIndexMask;
  if (low == 0 || low > nodes_used_) {
    return kNil;
  }
  const uint32_t index = static_cast<uint32_t>(low - 1);
  const Node& node = At(index);
  // A handle with bits above the generation never matches a generation.
  if (node.generation != (handle >> kIndexBits) || node.slot >= kSlots) {
    return kNil;  // fired, canceled, or firing now
  }
  return index;
}

uint32_t HierarchicalWheelTimerQueue::AllocNode() {
  if (free_head_ != kNil) {
    const uint32_t index = free_head_;
    free_head_ = At(index).next;
    return index;
  }
  if (nodes_used_ == kMaxNodes) {
    std::fprintf(stderr, "HierarchicalWheelTimerQueue: more than %u pending timers\n",
                 kMaxNodes);
    std::abort();
  }
  if (nodes_used_ == chunks_.size() * kChunkSize) {
    chunks_.push_back(std::make_unique<Node[]>(kChunkSize));
  }
  return nodes_used_++;
}

void HierarchicalWheelTimerQueue::FreeNode(uint32_t index) {
  Node& node = At(index);
  node.cb = nullptr;  // release captured resources while parked
  node.slot = kFree;
  node.generation = (node.generation + 1) & kGenerationMask;
  node.next = free_head_;
  free_head_ = index;
}

void HierarchicalWheelTimerQueue::Append(size_t slot, uint32_t index) {
  Node& node = At(index);
  SlotList& list = slots_[slot];
  node.slot = static_cast<uint16_t>(slot);
  node.prev = list.tail;
  node.next = kNil;
  if (list.tail != kNil) {
    At(list.tail).next = index;
  } else {
    list.head = index;
    occupied_[slot >> 6] |= uint64_t{1} << (slot & 63);
  }
  list.tail = index;
}

uint32_t HierarchicalWheelTimerQueue::Detach(size_t slot) {
  const uint32_t head = slots_[slot].head;
  slots_[slot] = SlotList{};
  occupied_[slot >> 6] &= ~(uint64_t{1} << (slot & 63));
  return head;
}

void HierarchicalWheelTimerQueue::Unlink(uint32_t index) {
  const Node& node = At(index);
  SlotList& list = slots_[node.slot];
  if (node.prev != kNil) {
    At(node.prev).next = node.next;
  } else {
    list.head = node.next;
  }
  if (node.next != kNil) {
    At(node.next).prev = node.prev;
  } else {
    list.tail = node.prev;
  }
  if (list.head == kNil) {
    occupied_[node.slot >> 6] &= ~(uint64_t{1} << (node.slot & 63));
  }
}

void HierarchicalWheelTimerQueue::Place(uint32_t index) {
  Node& node = At(index);
  uint64_t tick = node.tick;
  uint64_t delta = tick > current_tick_ ? tick - current_tick_ : 0;
  size_t slot = 0;
  if (delta < kLevelHorizon[0]) {
    slot = static_cast<size_t>(tick & kL0Mask);
  } else if (delta < kLevelHorizon[1]) {
    slot = kSlotBase[1] + static_cast<size_t>((tick >> kLevelShift[1]) & kLnMask);
  } else if (delta < kLevelHorizon[2]) {
    slot = kSlotBase[2] + static_cast<size_t>((tick >> kLevelShift[2]) & kLnMask);
  } else {
    // Clamp beyond the top level's horizon, as Linux clamps beyond tv5.
    if (delta >= kLevelHorizon[3]) {
      tick = current_tick_ + kLevelHorizon[3] - 1;
      node.tick = tick;
    }
    slot = kSlotBase[3] + static_cast<size_t>((tick >> kLevelShift[3]) & kLnMask);
  }
  Append(slot, index);
  // Inserting can only lower the minimum; an invalid cache stays invalid
  // (the pending refresh will see this node too).
  if (cache_valid_ && tick < cached_next_tick_) {
    cached_next_tick_ = tick;
  }
}

TimerHandle HierarchicalWheelTimerQueue::Schedule(SimTime expiry, TimerQueueCallback cb) {
  obs::ScopedProbe probe(stats_.set_cycles);
  stats_.set_ops->Inc();
  const uint32_t index = AllocNode();
  Node& node = At(index);
  node.tick = TickFor(expiry);
  node.cb = std::move(cb);
  Place(index);
  ++size_;
  return HandleOf(index, node.generation);
}

bool HierarchicalWheelTimerQueue::Cancel(TimerHandle handle) {
  obs::ScopedProbe probe(stats_.cancel_cycles);
  stats_.cancel_ops->Inc();
  const uint32_t index = Find(handle);
  if (index == kNil) {
    return false;
  }
  const uint64_t tick = At(index).tick;
  Unlink(index);
  FreeNode(index);
  --size_;
  if (size_ == 0) {
    cached_next_tick_ = UINT64_MAX;
    cache_valid_ = true;
  } else if (cache_valid_ && tick <= cached_next_tick_) {
    // Removed an entry at the minimum; another node may share the tick, so
    // the true minimum is unknown until the next lazy refresh.
    cache_valid_ = false;
  }
  return true;
}

void HierarchicalWheelTimerQueue::Cascade(int level, size_t slot) {
  uint32_t index = Detach(kSlotBase[level] + slot);
  // Head to tail, each appended at its new slot's tail: FIFO order holds.
  while (index != kNil) {
    const uint32_t next = At(index).next;
    ++cascades_;
    Place(index);
    index = next;
  }
}

size_t HierarchicalWheelTimerQueue::RunTick() {
  ++current_tick_;
  const size_t idx = static_cast<size_t>(current_tick_ & kL0Mask);
  if (idx == 0) {
    // Hand wrapped level 0: pull one bucket down from each level whose index
    // also wrapped — the "cascade" of __run_timers.
    for (int level = 1; level < kLevels; ++level) {
      const size_t lslot =
          static_cast<size_t>((current_tick_ >> kLevelShift[level]) & kLnMask);
      Cascade(level, lslot);
      if (lslot != 0) {
        break;
      }
    }
  }
  // Detach the due bucket completely before running callbacks: a callback
  // may cancel or re-arm other timers (including ones due this very tick),
  // and must not be able to corrupt the bucket being processed. A timer that
  // has been detached can no longer be canceled — the same semantics as
  // Linux's del_timer racing an already-dequeued callback.
  const uint32_t head = Detach(idx);
  size_t fired = 0;
  for (uint32_t index = head; index != kNil; index = At(index).next) {
    assert(At(index).tick <= current_tick_);
    At(index).slot = kFiring;
    ++fired;
  }
  size_ -= fired;
  // Invalidate before the callbacks run: if the hand reached the cached
  // minimum it just fired (or is firing below). Callbacks that Schedule
  // against an invalid cache leave it invalid, which the lazy refresh fixes.
  if (size_ == 0) {
    cached_next_tick_ = UINT64_MAX;
    cache_valid_ = true;
  } else if (cache_valid_ && cached_next_tick_ <= current_tick_) {
    cache_valid_ = false;
  }
  // Nodes never move, so each callback runs in place; the node is freed
  // once it returns.
  for (uint32_t index = head; index != kNil;) {
    Node& node = At(index);
    const uint32_t next = node.next;
    node.cb(HandleOf(index, node.generation));
    FreeNode(index);
    index = next;
  }
  return fired;
}

TimerHandle HierarchicalWheelTimerQueue::Reschedule(TimerHandle handle,
                                                    SimTime new_expiry) {
  obs::ScopedProbe probe(stats_.set_cycles);
  const uint32_t index = Find(handle);
  if (index == kNil) {
    return kInvalidTimerHandle;
  }
  stats_.resched_ops->Inc();
  Node& node = At(index);
  Unlink(index);
  // Removal side of the move: the old tick may have been the cached
  // minimum; the true minimum is unknown until the next lazy refresh.
  if (cache_valid_ && node.tick <= cached_next_tick_) {
    cache_valid_ = false;
  }
  node.tick = TickFor(new_expiry);
  Place(index);  // appends at the new slot's tail and lowers a valid cache
  return handle;
}

size_t HierarchicalWheelTimerQueue::MemoryBytes() const {
  return chunks_.size() * kChunkSize * sizeof(Node) +
         chunks_.capacity() * sizeof(chunks_[0]) + sizeof(slots_) + sizeof(occupied_);
}

size_t HierarchicalWheelTimerQueue::AdvanceTo(SimTime now) {
  obs::ScopedProbe probe(stats_.advance_cycles);
  const uint64_t target_tick =
      static_cast<uint64_t>(std::max<SimTime>(now, 0)) / static_cast<uint64_t>(granularity_);
  size_t fired = 0;
  while (current_tick_ < target_tick) {
    fired += RunTick();
  }
  stats_.expire_ops->Inc(fired);
  return fired;
}

uint64_t HierarchicalWheelTimerQueue::NextTick() const {
  // Between operations level 0 holds only ticks hand+1 .. hand+255, one
  // tick per slot, so its first occupied slot after the hand is exact.
  // Visit the word holding that slot, the other three, then the first
  // word again for the slots before it.
  uint64_t best = UINT64_MAX;
  const size_t from = static_cast<size_t>((current_tick_ + 1) & kL0Mask);
  for (size_t k = 0; k <= 4; ++k) {
    const size_t word = ((from >> 6) + k) & 3;
    uint64_t bits = occupied_[word];
    if (k == 0) {
      bits &= ~uint64_t{0} << (from & 63);
    } else if (k == 4) {
      bits &= (uint64_t{1} << (from & 63)) - 1;
    }
    if (bits != 0) {
      const size_t slot = word * 64 + static_cast<size_t>(std::countr_zero(bits));
      best = current_tick_ + 1 + ((slot - from) & kL0Mask);
      break;
    }
  }
  // A higher-level slot holds one block of 2^shift ticks, and its blocks
  // follow the hand in slot order: the first occupied slot after the hand
  // (the hand's own slot last, one revolution ahead) holds the level's
  // earliest block. Its nodes are unordered, so scan it, but only if the
  // block can start before the best tick so far.
  for (int level = 1; level < kLevels; ++level) {
    const uint64_t bits = occupied_[kSlotBase[level] >> 6];
    if (bits == 0) {
      continue;
    }
    const int shift = kLevelShift[level];
    const uint64_t hand = current_tick_ >> shift;
    const int from_slot = static_cast<int>((hand + 1) & kLnMask);
    const int ahead = std::countr_zero(std::rotr(bits, from_slot));
    if (((hand + 1 + static_cast<uint64_t>(ahead)) << shift) >= best) {
      continue;
    }
    const size_t slot = kSlotBase[level] + static_cast<size_t>((from_slot + ahead) & kLnMask);
    for (uint32_t index = slots_[slot].head; index != kNil; index = At(index).next) {
      best = std::min(best, At(index).tick);
    }
  }
  return best;
}

SimTime HierarchicalWheelTimerQueue::NextExpiry() const {
  if (size_ == 0) {
    return kNeverTime;
  }
  if (!cache_valid_) {
    obs::ScopedProbe probe(stats_.refresh_cycles);
    cached_next_tick_ = NextTick();
    cache_valid_ = true;
    ++next_expiry_scans_;
  }
  return static_cast<SimTime>(cached_next_tick_ * static_cast<uint64_t>(granularity_));
}

SimTime HierarchicalWheelTimerQueue::NextExpiryScan() const {
  uint64_t best = UINT64_MAX;
  for (uint32_t index = 0; index < nodes_used_; ++index) {
    const Node& node = At(index);
    if (node.slot < kSlots) {
      best = std::min(best, node.tick);
    }
  }
  return best == UINT64_MAX
             ? kNeverTime
             : static_cast<SimTime>(best * static_cast<uint64_t>(granularity_));
}

}  // namespace tempo

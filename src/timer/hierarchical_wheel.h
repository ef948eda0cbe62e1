// Hierarchical timing wheel with cascading (Varghese & Lauck scheme 7;
// the Linux 2.6 tv1..tv5 "cascading wheel" design).

#ifndef TEMPO_SRC_TIMER_HIERARCHICAL_WHEEL_H_
#define TEMPO_SRC_TIMER_HIERARCHICAL_WHEEL_H_

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/timer/queue.h"

namespace tempo {

// Four levels of 256/64/64/64 slots over a base tick. Level 0 holds timers
// expiring within 256 ticks; higher levels hold coarser buckets which are
// *cascaded* (re-distributed into finer levels) when the hand reaches them —
// exactly the structure behind Linux's __run_timers. Expiries beyond level
// 3's horizon (2^26 ticks) are clamped to it, as Linux clamps beyond tv5.
//
// Storage: timers live in a chunked node slab (growth adds a chunk and
// never moves a node; freed nodes are reused through a free list), and each
// slot is a FIFO list linked by 32-bit node indices. A handle names its
// node directly, so once the slab has grown, Schedule, Cancel, Reschedule
// and cascades allocate nothing and hash nothing.
//
// Next expiry: one occupancy bit per slot (four 64-bit words for level 0,
// one word for each higher level). The earliest level-0 timer is in the
// first occupied slot after the hand, which holds a single tick. At each
// higher level the first occupied slot after the hand holds that level's
// earliest block; its list is scanned only when the block can start
// before the best tick found below it. A refresh of the cached minimum
// therefore costs O(levels + one slot), not O(pending timers).
//
// Handles: bits 0-27 hold the node index plus one (so a handle is never
// 0), bits 28-47 the node's generation, which advances each time the node
// is freed. A fired or canceled handle is rejected even after its node has
// been reused; the same handle value comes back only after 2^20 (1,048,576)
// reuses of one node. Handles fit TimerService's 48-bit local field, and
// one wheel holds at most 2^28 - 1 timers.
class HierarchicalWheelTimerQueue : public TimerQueue {
 public:
  // `stats_label` selects the obs instrument set; sharded wrappers pass a
  // per-shard label so concurrent instances never share an instrument.
  explicit HierarchicalWheelTimerQueue(SimDuration granularity = kMillisecond,
                                       const std::string& stats_label = "hierarchical_wheel");

  TimerHandle Schedule(SimTime expiry, TimerQueueCallback cb) override;
  bool Cancel(TimerHandle handle) override;
  TimerHandle Reschedule(TimerHandle handle, SimTime new_expiry) override;
  size_t Size() const override { return size_; }
  // Returns the cached minimum. An operation that removed the earliest
  // entry (cancel-of-min or a tick that fired it) invalidates the cache,
  // and the next call refreshes it with the bitmap search above, timed
  // into timer_op_cycles{op="refresh"}.
  SimTime NextExpiry() const override;
  size_t MemoryBytes() const override;
  std::string Name() const override { return "hierarchical_wheel"; }

  // Reference implementation of NextExpiry(): walks every node of the
  // slab. Kept for cross-checking the cache and the bitmap search, and for
  // the regression benchmark in bench/micro_timer_service.
  SimTime NextExpiryScan() const;

  // Number of entries moved between levels by cascades (work metric).
  uint64_t cascades() const { return cascades_; }

  // Refreshes NextExpiry() had to perform because the cached minimum was
  // invalidated; the cache-effectiveness metric.
  uint64_t next_expiry_scans() const { return next_expiry_scans_; }

 protected:
  size_t AdvanceTo(SimTime now) override;

 private:
  static constexpr int kLevels = 4;
  static constexpr size_t kL0Slots = 256;
  static constexpr size_t kLnSlots = 64;
  static constexpr size_t kSlots = kL0Slots + (kLevels - 1) * kLnSlots;
  static constexpr uint32_t kNil = UINT32_MAX;
  // Node::slot values for nodes in no slot list.
  static constexpr uint16_t kFree = UINT16_MAX;
  static constexpr uint16_t kFiring = UINT16_MAX - 1;  // detached for firing
  static constexpr size_t kChunkBits = 10;              // 1024 nodes a chunk
  static constexpr size_t kChunkSize = size_t{1} << kChunkBits;

  struct Node {
    uint64_t tick = 0;
    uint32_t prev = kNil;
    uint32_t next = kNil;  // also links the free list
    uint32_t generation = 0;
    uint16_t slot = kFree;  // flat slot index (level 0 first), or kFree/kFiring
    TimerQueueCallback cb;
  };

  struct SlotList {
    uint32_t head = kNil;
    uint32_t tail = kNil;
  };

  Node& At(uint32_t index) { return chunks_[index >> kChunkBits][index & (kChunkSize - 1)]; }
  const Node& At(uint32_t index) const {
    return chunks_[index >> kChunkBits][index & (kChunkSize - 1)];
  }
  uint64_t TickFor(SimTime expiry) const;
  // Node index for a live handle, or kNil if it is unknown, fired or canceled.
  uint32_t Find(TimerHandle handle) const;
  uint32_t AllocNode();
  void FreeNode(uint32_t index);
  void Append(size_t slot, uint32_t index);
  uint32_t Detach(size_t slot);  // empties a slot; returns its old head
  void Unlink(uint32_t index);
  // Places a node into the right level/slot for its tick given the hand.
  void Place(uint32_t index);
  size_t RunTick();  // advance hand one tick, cascading as needed; returns fires
  void Cascade(int level, size_t slot);
  uint64_t NextTick() const;  // the bitmap search; feeds the cache refresh

  SimDuration granularity_;
  std::vector<std::unique_ptr<Node[]>> chunks_;
  uint32_t nodes_used_ = 0;  // slab high-water mark: nodes ever handed out
  uint32_t free_head_ = kNil;
  std::array<SlotList, kSlots> slots_{};
  std::array<uint64_t, kSlots / 64> occupied_{};  // one bit per slot
  uint64_t current_tick_ = 0;
  size_t size_ = 0;
  uint64_t cascades_ = 0;

  // Cached earliest pending tick, maintained incrementally: Schedule can
  // only lower it, Cancel/RunTick invalidate it when they remove an entry
  // at the minimum, and NextExpiry() lazily refreshes it while invalid.
  // UINT64_MAX with a valid cache means "empty".
  mutable uint64_t cached_next_tick_ = UINT64_MAX;
  mutable bool cache_valid_ = true;
  mutable uint64_t next_expiry_scans_ = 0;

  TimerQueueStats stats_;
};

}  // namespace tempo

#endif  // TEMPO_SRC_TIMER_HIERARCHICAL_WHEEL_H_

// Pending-event priority queue for the discrete-event simulator.
//
// Ordering: events fire in timestamp order, and events scheduled for the
// same instant fire in scheduling order (FIFO), broken by a monotonic
// sequence number. The OS models rely on that: a clock interrupt scheduled
// before a device interrupt at the same tick is delivered first.
//
// Storage: callbacks live in a slab of slots reused through a free list,
// and a binary min-heap holds small {at, seq, slot} entries while each slot
// records its heap position. Cancel is eager: it removes the entry in
// O(log n) and leaves no tombstone, so the heap only ever holds live
// events. Once the slab has grown to the peak population, scheduling a
// closure that std::function stores in place (a `[this]`-sized capture)
// allocates nothing.

#ifndef TEMPO_SRC_SIM_EVENT_QUEUE_H_
#define TEMPO_SRC_SIM_EVENT_QUEUE_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "src/sim/time.h"

namespace tempo {

// Opaque identifier of a scheduled event; 0 is "invalid" and never issued.
//
// Layout: the low 32 bits are the event's slot index, the high 32 bits that
// slot's generation, which starts at 1 and steps on every fire or cancel,
// skipping 0 when it wraps (so no id is 0). A stale id therefore fails the
// generation check once its slot has been reused; an id value repeats only
// after 2^32 - 1 reuses of one slot.
using EventId = uint64_t;
inline constexpr EventId kInvalidEventId = 0;

// A time-ordered queue of one-shot callbacks with O(log n) insertion,
// removal of the earliest event, and cancellation.
class EventQueue {
 public:
  EventQueue() = default;
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  // Enqueues `fn` (which must not be empty) to run at absolute time `at`.
  // Returns an id usable with Cancel(). `at` may be in the past relative to
  // previously popped events; the Simulator guards against that, not the
  // queue.
  EventId Schedule(SimTime at, std::function<void()> fn);

  // Cancels a pending event and destroys its callback. Returns false if the
  // event already fired, is running right now, was already canceled, or the
  // id is unknown.
  bool Cancel(EventId id);

  // True if no events are pending.
  bool Empty() const { return heap_.empty(); }

  // Number of pending events.
  size_t Size() const { return heap_.size(); }

  // Time of the earliest pending event; kNeverTime if empty.
  SimTime NextTime() const { return heap_.empty() ? kNeverTime : heap_.front().at; }

  // Removes and returns the earliest event. Requires !Empty(). The callback
  // leaves its slot before Pop returns, so it may schedule and cancel other
  // events (its own id no longer cancels) while it runs.
  struct Fired {
    SimTime at;
    EventId id;
    std::function<void()> fn;
  };
  Fired Pop();

 private:
  struct Entry {
    SimTime at;
    uint64_t seq;  // scheduling order: the FIFO tiebreaker at equal `at`
    uint32_t slot;
  };
  struct Slot {
    std::function<void()> fn;
    uint32_t generation = 1;
    uint32_t heap_pos = kFree;  // index of this slot's entry in heap_
  };
  static constexpr uint32_t kFree = UINT32_MAX;

  static bool Before(const Entry& a, const Entry& b) {
    return a.at != b.at ? a.at < b.at : a.seq < b.seq;
  }
  // Stores `e` at heap_[pos] and points its slot back at pos.
  void Place(size_t pos, const Entry& e) {
    heap_[pos] = e;
    slots_[e.slot].heap_pos = static_cast<uint32_t>(pos);
  }
  // Moves the hole at heap_[hole] toward the root or the leaves until
  // `entry` fits there in heap order, then stores it there.
  void SiftUp(size_t hole, Entry entry);
  void SiftDown(size_t hole, Entry entry);
  // Removes heap_[pos], refilling the hole with the last entry.
  void RemoveAt(size_t pos);
  // Returns a slot whose entry has left the heap to the free list.
  void Release(uint32_t slot);

  std::vector<Entry> heap_;
  std::vector<Slot> slots_;
  std::vector<uint32_t> free_slots_;
  uint64_t next_seq_ = 0;
};

}  // namespace tempo

#endif  // TEMPO_SRC_SIM_EVENT_QUEUE_H_

#include "src/sim/event_queue.h"

#include <cassert>
#include <utility>

namespace tempo {

EventId EventQueue::Schedule(SimTime at, std::function<void()> fn) {
  assert(fn && "an event needs a callback");
  uint32_t index;
  if (free_slots_.empty()) {
    assert(slots_.size() < kFree);
    index = static_cast<uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    index = free_slots_.back();
    free_slots_.pop_back();
  }
  Slot& slot = slots_[index];
  slot.fn = std::move(fn);
  const Entry entry{at, next_seq_++, index};
  heap_.push_back(entry);
  SiftUp(heap_.size() - 1, entry);
  return (EventId{slot.generation} << 32) | index;
}

bool EventQueue::Cancel(EventId id) {
  const uint64_t index = id & UINT32_MAX;
  if (index >= slots_.size()) {
    return false;
  }
  Slot& slot = slots_[index];
  if (slot.heap_pos == kFree || slot.generation != static_cast<uint32_t>(id >> 32)) {
    return false;  // fired, running, canceled, or never issued
  }
  // The callback is destroyed only once the queue is consistent again, so
  // whatever its captures' destructors do sees a well-formed queue.
  const std::function<void()> doomed = std::move(slot.fn);
  RemoveAt(slot.heap_pos);
  Release(static_cast<uint32_t>(index));
  return true;
}

EventQueue::Fired EventQueue::Pop() {
  assert(!heap_.empty());
  const Entry top = heap_.front();
  Slot& slot = slots_[top.slot];
  Fired fired{top.at, (EventId{slot.generation} << 32) | top.slot, std::move(slot.fn)};
  RemoveAt(0);
  Release(top.slot);
  return fired;
}

void EventQueue::SiftUp(size_t hole, Entry entry) {
  while (hole > 0) {
    const size_t parent = (hole - 1) / 2;
    if (!Before(entry, heap_[parent])) {
      break;
    }
    Place(hole, heap_[parent]);
    hole = parent;
  }
  Place(hole, entry);
}

void EventQueue::SiftDown(size_t hole, Entry entry) {
  const size_t n = heap_.size();
  for (size_t child = 2 * hole + 1; child < n; child = 2 * hole + 1) {
    if (child + 1 < n && Before(heap_[child + 1], heap_[child])) {
      ++child;
    }
    if (!Before(heap_[child], entry)) {
      break;
    }
    Place(hole, heap_[child]);
    hole = child;
  }
  Place(hole, entry);
}

void EventQueue::RemoveAt(size_t pos) {
  const Entry last = heap_.back();
  heap_.pop_back();
  if (pos == heap_.size()) {
    return;  // the removed entry was the last one
  }
  if (pos > 0 && Before(last, heap_[(pos - 1) / 2])) {
    SiftUp(pos, last);
  } else {
    SiftDown(pos, last);
  }
}

void EventQueue::Release(uint32_t index) {
  Slot& slot = slots_[index];
  slot.heap_pos = kFree;
  if (++slot.generation == 0) {
    slot.generation = 1;
  }
  free_slots_.push_back(index);
}

}  // namespace tempo

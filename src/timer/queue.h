// Common interface for timer-queue data structures.
//
// Section 2 of the paper describes a timer subsystem as "a multiplexer for
// timers": a priority queue of outstanding timers over a single lower-level
// timer, typically implemented with a variant of Varghese & Lauck's timing
// wheels. This module provides the classic implementations behind one
// interface so their costs can be compared (experiment E18) and their
// behaviour cross-checked by property tests:
//
//   * HeapTimerQueue          binary heap, O(log n) ops (classic Unix)
//   * TreeTimerQueue          red-black tree, O(log n) (Linux hrtimers)
//   * HashedWheelTimerQueue   hashed timing wheel, O(1) expected (scheme 6)
//   * HierarchicalWheelTimerQueue  hierarchical wheel with cascading,
//                             O(1) amortised (scheme 7; Linux tv1-tv5)
//   * LawnTimerQueue          per-TTL FIFO lawn, O(1) unbound
//                             (Lev-Libfeld's "Timer Lawn")
//
// The interface is the v2 redesign grown for the million-connection server
// scenario: an options-struct factory, a Reschedule fast path (RTO backoff
// and keepalive re-arm move a timer far more often than they create one),
// batch entry points, a memory-accounting hook, and a monotonic-clock
// contract enforced at the API boundary rather than trusted to callers.

#ifndef TEMPO_SRC_TIMER_QUEUE_H_
#define TEMPO_SRC_TIMER_QUEUE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/obs/metrics.h"
#include "src/obs/probe.h"
#include "src/sim/time.h"

namespace tempo {

// Handle to a scheduled entry; 0 is invalid. Handles are stable across
// Reschedule: a connection can keep one handle per timer for its lifetime.
// A handle is opaque and fits in 48 bits (TimerService packs its shard
// number above them). Once its timer has fired or been canceled the handle
// is dead, and Cancel and Reschedule reject it. A backend that recycles
// entry storage (the hierarchical wheel) keeps that promise with a
// per-entry generation, so one handle value can come back only after
// many reuses of the same entry; its header gives the bound.
using TimerHandle = uint64_t;
inline constexpr TimerHandle kInvalidTimerHandle = 0;

// Callback invoked on expiry. Receives the handle so periodic clients can
// re-arm without extra captures. Hot-path note: a trivially copyable
// closure of at most two pointers (e.g. {object*, index, kind}) fits
// std::function's small-object buffer and never heap-allocates — the C10M
// server depends on this (see src/net/server.cc's static_assert).
using TimerQueueCallback = std::function<void(TimerHandle)>;

// One entry of a ScheduleBatch call: `expiry` in, `handle` out.
struct TimerBatchEntry {
  SimTime expiry = 0;
  TimerHandle handle = kInvalidTimerHandle;
};

// Abstract timer multiplexer.
class TimerQueue {
 public:
  virtual ~TimerQueue() = default;

  // Schedules a callback for absolute time `expiry`. Expiries in the past
  // fire on the next Advance. Returns a fresh handle.
  virtual TimerHandle Schedule(SimTime expiry, TimerQueueCallback cb) = 0;

  // Cancels a pending entry; false if unknown, fired, or already canceled.
  virtual bool Cancel(TimerHandle handle) = 0;

  // Moves a pending entry to a new expiry, keeping its handle and callback
  // — the RTO-backoff / keepalive-re-arm fast path, cheaper than
  // Cancel+Schedule because the callback is never touched and no new
  // handle is minted. Returns the handle on success, kInvalidTimerHandle
  // when the entry is unknown, fired, or canceled.
  virtual TimerHandle Reschedule(TimerHandle handle, SimTime new_expiry) = 0;

  // Schedules every entry with the shared callback, writing each fresh
  // handle back into its entry. One shared callback (copied per entry;
  // keep it SBO-small) is the batch contract — per-entry contexts belong
  // in the handle mapping of the caller.
  virtual void ScheduleBatch(std::span<TimerBatchEntry> entries,
                             const TimerQueueCallback& cb);

  // Cancels every handle in the span; returns how many were live. Invalid
  // and already-dead handles are skipped, not errors.
  virtual size_t CancelBatch(std::span<const TimerHandle> handles);

  // Fires all entries with expiry <= now (in expiry order up to the
  // queue's resolution). Returns the number fired.
  //
  // `now` should not go backwards. The contract is enforced here, at the
  // API boundary, the same way in every build: a backwards clock is
  // clamped to the high-water mark and counted in backwards_advances(),
  // so it can never corrupt wheel state. Concurrent callers (see
  // TimerService::AdvanceAll) may race their clocks, so a backwards clock
  // is not treated as a caller bug.
  size_t Advance(SimTime now);

  // Number of pending (live) entries.
  virtual size_t Size() const = 0;

  // Earliest pending expiry, or kNeverTime when empty. Used by dynticks to
  // program the next wakeup.
  virtual SimTime NextExpiry() const = 0;

  // Approximate bytes of heap owned by the queue for its current pending
  // set (nodes, index entries, slot arrays). The accounting hook behind
  // the C10M bytes/timer benchmarks; estimates, not malloc truth.
  virtual size_t MemoryBytes() const = 0;

  // Implementation name for reports.
  virtual std::string Name() const = 0;

  // Advance calls that tried to move the clock backwards (each was
  // clamped). Zero in a single in-order caller.
  uint64_t backwards_advances() const { return backwards_advances_; }

  // High-water mark of Advance — the queue's notion of "now".
  SimTime advance_watermark() const { return advance_watermark_; }

 protected:
  // The implementation's advance step. `now` is already validated to be
  // monotonic (>= every previous value it was called with).
  virtual size_t AdvanceTo(SimTime now) = 0;

 private:
  SimTime advance_watermark_ = 0;
  uint64_t backwards_advances_ = 0;
};

// Self-metrics bundle shared by every timer-queue implementation: op
// counters and op-latency histograms labelled by implementation name.
// Instances of the same implementation share instruments (the registry
// aggregates per label set); pointers are resolved once, at queue
// construction, so the hot paths never do a name lookup.
struct TimerQueueStats {
  obs::Counter* set_ops = nullptr;
  obs::Counter* cancel_ops = nullptr;
  obs::Counter* expire_ops = nullptr;
  obs::Counter* resched_ops = nullptr;
  obs::Histogram* set_cycles = nullptr;
  obs::Histogram* cancel_cycles = nullptr;
  obs::Histogram* advance_cycles = nullptr;
  // Refreshes of a cached minimum in NextExpiry(). Only the backends that
  // invalidate their minimum and rebuild it lazily (both wheels and the
  // lawn) record here; the heap and the tree read theirs directly.
  obs::Histogram* refresh_cycles = nullptr;

  // Instruments for `timer_ops{queue=<queue>,op=...}` and
  // `timer_op_cycles{queue=<queue>,op=...}`.
  static TimerQueueStats For(const std::string& queue);
};

// Construction options for the factory — the single way to make a queue.
struct TimerQueueOptions {
  // Implementation: "heap", "tree", "hashed_wheel", "hierarchical_wheel",
  // "lawn" (see TimerQueueNames()).
  std::string name = "hierarchical_wheel";
  // Instrument set label; defaults to `name`. Concurrent holders (the
  // sharded TimerService) must use distinct labels: instruments with equal
  // labels are shared, and shared instruments may only be updated from one
  // thread / one lock at a time.
  std::string stats_label;
  // Tick width for the quantising structures (both wheels and the lawn).
  SimDuration granularity = kMillisecond;
  // Slot count for the hashed wheel.
  size_t wheel_slots = 256;
};

// Creates a queue from options. Returns nullptr for unknown names.
std::unique_ptr<TimerQueue> MakeTimerQueue(const TimerQueueOptions& options);

// Names of all available implementations, for parameterised tests/benches
// and for the shared --queue flag validation in tools/common.
std::vector<std::string> TimerQueueNames();

namespace timer_internal {

// Rough heap cost of a node-based container's bookkeeping: per-element node
// (value plus two pointers of allocator/link overhead) and, for hash maps,
// the bucket array. Shared by the MemoryBytes() implementations; estimates
// by design — the bench compares backends, not mallocs.
template <typename Map>
size_t NodeMapBytes(const Map& map) {
  return map.bucket_count() * sizeof(void*) +
         map.size() * (sizeof(typename Map::value_type) + 2 * sizeof(void*));
}

template <typename Tree>
size_t TreeBytes(const Tree& tree) {
  // Three pointers + colour per red-black node.
  return tree.size() * (sizeof(typename Tree::value_type) + 4 * sizeof(void*));
}

template <typename List>
size_t ListBytes(const List& list) {
  return list.size() * (sizeof(typename List::value_type) + 2 * sizeof(void*));
}

}  // namespace timer_internal

}  // namespace tempo

#endif  // TEMPO_SRC_TIMER_QUEUE_H_

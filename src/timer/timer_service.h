// Sharded, thread-safe timer front-end.
//
// The paper's timer subsystems are single-threaded multiplexers; a
// production-scale system serving millions of connections cannot funnel
// every set/cancel through one lock and one structure. TimerService
// partitions timer load across N shards (CHRONOS-style per-context
// partitioning), each wrapping one TimerQueue implementation behind a
// fine-grained mutex, and keeps the two operations the OS models hammer —
// earliest-deadline lookup (every hardware-reprogram decision) and "is
// anything due?" — off the locks entirely:
//
//   * Each shard publishes its earliest pending deadline in an atomic,
//     maintained incrementally on Schedule/Cancel/Advance — never by
//     scanning the shard from the read path (Lawn's cheap-minimum lesson).
//   * GlobalNextExpiry() is a lock-free read of the per-shard atomics.
//   * AdvanceAll(now) locks only the shards whose published deadline is
//     due; idle shards are skipped without touching their mutex.
//
// Handles encode their owning shard, so Cancel routes directly with no
// global index. Per-shard obs instruments (op counters, lock-contention
// counter, deadline-cache hit rate) are updated only under the owning
// shard's mutex; take registry snapshots from a quiescent thread.

#ifndef TEMPO_SRC_TIMER_TIMER_SERVICE_H_
#define TEMPO_SRC_TIMER_TIMER_SERVICE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "src/timer/queue.h"
#include "src/trace/record.h"
#include "src/trace/relay.h"

namespace tempo {

class TimerService {
 public:
  struct Options {
    // Number of shards; 0 means std::thread::hardware_concurrency().
    size_t shards = 0;
    // Underlying TimerQueue implementation, by factory name.
    std::string queue = "hierarchical_wheel";
    // Tick width passed through to the quantising backends (both wheels
    // and the lawn); ignored by heap and tree.
    SimDuration granularity = kMillisecond;
    // Instrument label prefix; defaults to the queue name. Two services
    // alive at once must use distinct labels (instruments are shared by
    // label and are not thread-safe across services).
    std::string stats_label;
    // Optional relay tracing: when set, every shard registers its own
    // channel ("timer_service/<label>@<shard>") in this set and logs
    // kSet / kCancel / kExpire records through it under the shard lock —
    // the lock makes the shard's interleaved callers one logical producer,
    // so the whole sharded service traces concurrently with no extra
    // synchronisation. The set must outlive the service.
    RelayChannelSet* trace = nullptr;
    // Call site stamped on the records (intern one per service).
    CallsiteId trace_callsite = kUnknownCallsite;
  };

  TimerService();  // default options
  explicit TimerService(Options options);
  TimerService(const TimerService&) = delete;
  TimerService& operator=(const TimerService&) = delete;

  // Schedules on the calling thread's home shard (threads are spread over
  // shards round-robin, so a thread keeps hitting the same shard and
  // disjoint thread sets contend on disjoint locks). Thread-safe.
  TimerHandle Schedule(SimTime expiry, TimerQueueCallback cb);

  // Explicit shard placement (index taken modulo the shard count); the
  // deterministic single-threaded driver's interface. Thread-safe.
  TimerHandle ScheduleOn(size_t shard, SimTime expiry, TimerQueueCallback cb);

  // Schedules a batch on one shard under a single lock acquisition,
  // rewriting each entry's handle with the shard encoding. Same shared-
  // callback contract as TimerQueue::ScheduleBatch. Thread-safe; the bulk
  // arm path for connection setup storms.
  void ScheduleBatchOn(size_t shard, std::span<TimerBatchEntry> entries,
                       const TimerQueueCallback& cb);

  // Routes to the owning shard via the handle encoding. False for invalid,
  // unknown, fired or already-canceled handles. Thread-safe.
  bool Cancel(TimerHandle handle);

  // Cancels a batch of handles, grouping by owning shard so each shard's
  // lock is taken at most once. Returns how many were live. Thread-safe;
  // the bulk disarm path for connection teardown storms.
  size_t CancelBatch(std::span<const TimerHandle> handles);

  // Moves a pending timer to a new expiry, keeping handle and callback —
  // the RTO-backoff / keepalive re-arm fast path, one shard lock and no
  // handle churn. Returns the handle, or kInvalidTimerHandle when the
  // timer is unknown, fired, or canceled. Thread-safe.
  TimerHandle Reschedule(TimerHandle handle, SimTime new_expiry);

  // Fires everything due at `now`, locking only shards whose published
  // deadline is <= now. Returns the number fired. Thread-safe, though
  // expiry order across concurrently advanced shards is unspecified.
  size_t AdvanceAll(SimTime now);

  // Advances a single shard (index taken modulo the shard count) to `now`,
  // skipping the lock when the shard's published deadline is not due.
  // Returns the number fired. Thread-safe; this is the per-thread driving
  // interface — give each driving thread its own shard (as C10MServer's
  // lanes do) and AdvanceAll's work really does run in parallel.
  size_t AdvanceShard(size_t shard, SimTime now);

  // The published earliest deadline of one shard (modulo the shard count).
  // Lock-free, same staleness contract as GlobalNextExpiry().
  SimTime ShardNextExpiry(size_t shard) const;

  // Earliest published deadline across all shards, kNeverTime when idle.
  // Lock-free: reads one atomic per shard; the result is exact while the
  // service is quiescent and a safe lower-resolution hint under concurrent
  // mutation (like a real kernel's next-event heuristic).
  SimTime GlobalNextExpiry() const;

  // Total live timers (sum of per-shard atomic sizes). Lock-free.
  size_t Size() const;

  // Approximate bytes held by the underlying queues for the pending set
  // (sum of per-shard TimerQueue::MemoryBytes; locks each shard briefly).
  size_t MemoryBytes() const;

  size_t shard_count() const { return shards_.size(); }
  const std::string& queue_name() const { return queue_name_; }

  // Service-wide aggregates, for tools and tests. Monotonic.
  uint64_t advance_calls() const { return advance_calls_.load(std::memory_order_relaxed); }
  uint64_t shards_skipped() const { return shards_skipped_.load(std::memory_order_relaxed); }
  uint64_t shards_advanced() const { return shards_advanced_.load(std::memory_order_relaxed); }
  // Sums of the per-shard obs counters (quiescent reads).
  uint64_t set_count() const;
  uint64_t cancel_count() const;
  uint64_t expire_count() const;
  uint64_t reschedule_count() const;
  uint64_t contended_locks() const;
  uint64_t deadline_cache_hits() const;
  uint64_t deadline_cache_misses() const;

  // Publishes the service-wide aggregates into obs gauges
  // (timer_service_advance_calls / _shards_skipped / _shards_advanced).
  // Call from a quiescent thread before snapshotting the registry.
  void PublishStats();

  // Advances the clock used to stamp trace records (monotonic: earlier
  // values are ignored). AdvanceAll folds its `now` in automatically; call
  // this from the driving clock when Schedule/Cancel timestamps matter.
  // No-op when tracing is off. Thread-safe.
  void SetTraceTime(SimTime now);

  // Handle encoding, public for clients that observe queue-local handles
  // (a timer callback receives the local handle; comparing it against a
  // stored service handle's low bits detects stale fires): the shard index
  // lives in the top bits, biased by one so a service handle is never 0
  // and never collides with a bare queue handle.
  static constexpr int kShardShift = 48;
  static constexpr uint64_t kLocalMask = (uint64_t{1} << kShardShift) - 1;

 private:

  struct alignas(64) Shard {
    std::mutex mu;
    std::unique_ptr<TimerQueue> queue;  // guarded by mu
    // Published earliest deadline and live count; written under mu with
    // release, read lock-free with acquire.
    std::atomic<SimTime> next_expiry{kNeverTime};
    std::atomic<size_t> live{0};
    // Relay trace channel and its per-shard clock mirror (guarded by mu;
    // the mirror keeps the channel's timestamps nondecreasing even if
    // SetTraceTime races with ops on other shards).
    RelayChannel* trace = nullptr;
    SimTime trace_clock = 0;
    // Obs instruments, updated only under mu.
    obs::Counter* set_ops = nullptr;
    obs::Counter* cancel_ops = nullptr;
    obs::Counter* expire_ops = nullptr;
    obs::Counter* resched_ops = nullptr;
    obs::Counter* contended = nullptr;
    obs::Counter* cache_hits = nullptr;
    obs::Counter* cache_misses = nullptr;
  };

  // Locks the shard, counting the acquisition as contended if it blocked.
  std::unique_lock<std::mutex> LockShard(Shard& shard);
  TimerHandle ScheduleLocked(size_t index, Shard& shard, SimTime expiry, TimerQueueCallback cb);
  size_t AdvanceShardLocked(Shard& shard, SimTime now);
  // Republishes the shard's deadline; counts a cache hit when the
  // published value was still correct and a miss when it had to change.
  void RepublishDeadline(Shard& shard);
  // Logs one record to the shard's trace channel (no-op when tracing is
  // off). Must hold the shard lock.
  void TraceOp(Shard& shard, TimerOp op, TimerHandle handle, SimTime expiry);

  std::string queue_name_;
  CallsiteId trace_callsite_ = kUnknownCallsite;
  std::atomic<SimTime> trace_now_{0};
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<uint64_t> advance_calls_{0};
  std::atomic<uint64_t> shards_skipped_{0};
  std::atomic<uint64_t> shards_advanced_{0};
  obs::Gauge* gauge_shards_ = nullptr;
  obs::Gauge* gauge_advance_calls_ = nullptr;
  obs::Gauge* gauge_shards_skipped_ = nullptr;
  obs::Gauge* gauge_shards_advanced_ = nullptr;
};

}  // namespace tempo

#endif  // TEMPO_SRC_TIMER_TIMER_SERVICE_H_

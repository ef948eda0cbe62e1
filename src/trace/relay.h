// Relay channels: lock-free per-producer trace recording.
//
// The paper's methodology only works because logging is nearly free: relayfs
// gives every CPU its own chain of sub-buffers, so the instrumented kernel
// writes records with plain stores and the (rare) sub-buffer switch is the
// only synchronisation — 236 cycles/record, <0.1% CPU (Section 3.2). This
// module is the same design in user space:
//
//   * A RelayChannel is a single-producer/single-consumer ring of fixed-size
//     sub-buffers. The producer writes records with plain stores into the
//     open sub-buffer and publishes a full sub-buffer with one release
//     store; no locks, no CAS, no virtual dispatch on the hot path.
//     "Single producer" includes a sequence of threads whose hand-offs are
//     ordered by a mutex (the sharded TimerService logs from whichever
//     thread holds the shard lock).
//   * Overflow keeps relayfs semantics: when the consumer has not freed a
//     sub-buffer, new records are dropped — never overwriting old ones —
//     and counted per channel (exported as trace_relay_dropped in obs).
//   * A RelayDrainer harvests full sub-buffers from every channel of a
//     RelayChannelSet and emits a stable, globally timestamp-ordered merge
//     (ties broken by channel registration order, then FIFO within a
//     channel). Poll() emits only the prefix proven safe by the per-channel
//     watermarks; Finish() flushes and emits everything once producers are
//     quiescent. The emit callback typically feeds a TraceStreamWriter
//     (stream_writer.h), so records flow to disk while the workload runs.
//
// Ordering contract: timestamps within one channel must be nondecreasing
// (true of any producer stamping from a monotonic clock). The drainer
// treats each channel's largest harvested timestamp as its watermark, so a
// violation can only delay emission, never reorder the merge key.

#ifndef TEMPO_SRC_TRACE_RELAY_H_
#define TEMPO_SRC_TRACE_RELAY_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/obs/metrics.h"
#include "src/trace/record.h"

namespace tempo {

// The Linux study's relayfs buffer was 512 MiB; the equivalent record
// budget, derived in one place instead of hard-coding a count.
inline constexpr size_t kRelayBufferBytes = size_t{512} << 20;
inline constexpr size_t kRelayDefaultCapacity = kRelayBufferBytes / sizeof(TraceRecord);

// Sub-buffer geometry of one channel. The defaults mirror relayfs practice:
// sub-buffers big enough that publication cost vanishes (4096 records ≈
// 224 KiB), few enough that an idle channel costs little.
struct RelayChannelConfig {
  size_t sub_buffer_records = 4096;
  size_t sub_buffer_count = 8;

  size_t capacity_records() const { return sub_buffer_records * sub_buffer_count; }

  // Geometry holding at least `records` (sub-buffers of at most
  // `sub_buffer_records` each, plus one slot of slack for a partial flush).
  static RelayChannelConfig ForCapacity(size_t records);
};

// One producer's ring of sub-buffers. Producer-side calls (TryLog,
// FlushOpen, Close) and consumer-side calls (Harvest) may race with each
// other but not with themselves; see the header comment for what counts as
// a single producer. Sub-buffer storage is allocated lazily, so an idle
// channel holds no record memory.
class RelayChannel {
 public:
  explicit RelayChannel(std::string name, RelayChannelConfig config = {});
  RelayChannel(const RelayChannel&) = delete;
  RelayChannel& operator=(const RelayChannel&) = delete;

  // --- producer side ---

  // Appends one record with plain stores; publishes the sub-buffer with a
  // release store when it fills. Returns false — dropping the record, never
  // overwriting — when every sub-buffer is full and unharvested.
  bool TryLog(const TraceRecord& record);

  // Publishes the partially filled open sub-buffer (no-op when empty), so
  // the consumer can harvest everything logged so far.
  void FlushOpen();

  // Flushes and marks the channel done; the drainer treats a closed
  // channel as unable to hold back the merge watermark.
  void Close();

  // --- consumer side ---

  // Moves the records of every published sub-buffer into `out`, freeing
  // the sub-buffers for reuse. Returns the number harvested.
  size_t Harvest(std::vector<TraceRecord>* out);

  // --- either side ---

  const std::string& name() const { return name_; }
  size_t capacity_records() const { return sub_records_ * slots_.size(); }
  size_t sub_buffer_records() const { return sub_records_; }
  bool closed() const { return closed_.load(std::memory_order_acquire); }
  // Records accepted (published or still open) and dropped, respectively.
  uint64_t accepted() const { return accepted_.load(std::memory_order_relaxed); }
  uint64_t dropped() const { return dropped_.load(std::memory_order_relaxed); }

 private:
  friend class RelayChannelSet;
  friend class RelayDrainer;

  struct Slot {
    std::unique_ptr<TraceRecord[]> records;  // lazily allocated
    uint32_t count = 0;                      // valid once published
  };

  void Publish();

  std::string name_;
  size_t sub_records_;
  std::vector<Slot> slots_;

  // Producer-owned state, padded away from the shared cursors.
  alignas(64) uint64_t produced_local_ = 0;  // sub-buffers published
  size_t open_count_ = 0;                    // records in the open sub-buffer
  uint64_t accepted_local_ = 0;
  uint64_t dropped_local_ = 0;

  // Publication cursor (producer writes, consumer reads).
  alignas(64) std::atomic<uint64_t> produced_{0};
  std::atomic<uint64_t> accepted_{0};
  std::atomic<uint64_t> dropped_{0};
  std::atomic<bool> closed_{false};

  // Consumption cursor (consumer writes, producer reads).
  alignas(64) std::atomic<uint64_t> consumed_{0};
  uint64_t consumed_local_ = 0;  // consumer-owned mirror

  // Per-channel obs instruments, set by RelayChannelSet::Register and
  // updated only by the drainer thread.
  obs::Counter* metric_records_ = nullptr;
  obs::Counter* metric_dropped_ = nullptr;
  uint64_t obs_records_synced_ = 0;  // drainer-owned
};

// The registry of channels one drainer harvests. Channels are registered by
// producers during setup (registration is mutex-serialised and published
// with an atomic count, so a drainer already running sees a consistent
// prefix), and live for the set's lifetime.
class RelayChannelSet {
 public:
  RelayChannelSet() = default;
  RelayChannelSet(const RelayChannelSet&) = delete;
  RelayChannelSet& operator=(const RelayChannelSet&) = delete;

  // Creates and returns a new channel. The pointer stays valid for the
  // set's lifetime. Also resolves the channel's obs instruments
  // (trace_relay_records / trace_relay_dropped, labelled by channel).
  RelayChannel* Register(const std::string& name, RelayChannelConfig config = {});

  // Closes every channel (producers must be quiescent).
  void CloseAll();

  size_t size() const { return count_.load(std::memory_order_acquire); }
  RelayChannel* channel(size_t index) { return &channels_[index]; }

 private:
  std::mutex register_mu_;
  std::deque<RelayChannel> channels_;  // deque: stable addresses
  std::atomic<size_t> count_{0};
};

// Harvests every channel of a set and emits a stable timestamp-ordered
// merge. Single-threaded consumer: all calls must come from one thread (or
// be externally serialised).
class RelayDrainer {
 public:
  using EmitFn = std::function<void(const TraceRecord&)>;

  // An uninstrumented drainer stays off the process-global obs registry.
  // Drainers polled from different threads need this (simulated fleet
  // hosts): they would share the same two unlabelled counters and break
  // the registry's single-writer rule.
  RelayDrainer(RelayChannelSet* channels, EmitFn emit, bool instrumented = true);

  // Harvests published sub-buffers and emits every record proven globally
  // orderable: records strictly below the minimum watermark of all open
  // channels. Cheap when nothing new was published. Returns records
  // emitted by this call.
  size_t Poll();

  // Final drain: flushes partial sub-buffers of closed channels (and, with
  // `flush_open_channels`, of open ones — callers must then guarantee the
  // producers are quiescent), harvests, and emits everything staged in
  // stable timestamp order. Returns records emitted by this call.
  size_t Finish(bool flush_open_channels = true);

  uint64_t emitted() const { return emitted_; }
  // Records harvested but still held back by the watermark.
  size_t staged() const;

 private:
  // A channel's harvested records not yet emitted. HarvestAll drops the
  // consumed prefix once it is half the lane, so a lane holds only its
  // unconsumed tail plus at most as much again, not the whole run.
  struct Lane {
    std::vector<TraceRecord> staged;
    size_t head = 0;             // consumed prefix of `staged`
    bool saw_records = false;    // watermark is meaningless until first harvest
    // Snapshot of the channel's closed flag taken BEFORE the harvest, so
    // that when it reads true, the release/acquire pair on closed_
    // guarantees the channel's final flush was in that harvest — a lane
    // may only stop bounding the merge once all its records are staged.
    bool closed = false;
    SimTime watermark = 0;       // largest harvested timestamp
  };

  void HarvestAll();
  size_t EmitMerged(SimTime bound, bool bounded);

  RelayChannelSet* channels_;
  EmitFn emit_;
  std::vector<Lane> lanes_;
  uint64_t emitted_ = 0;
  obs::Counter* metric_polls_ = nullptr;    // null: uninstrumented
  obs::Counter* metric_emitted_ = nullptr;
};

}  // namespace tempo

#endif  // TEMPO_SRC_TRACE_RELAY_H_

// Trace sinks and the study's trace recorder.
//
// The Linux study logged into a 512 MiB relayfs buffer: ordered, lossless up
// to capacity, with new events *dropped* (never overwriting old ones) on
// overflow. The Vista study used an ETW session, effectively unbounded for
// the trace lengths involved. TraceRecorder models both: one ordered vector
// with a capacity, kUnbounded for ETW.
//
// Logging itself costs CPU: the paper measured 236 cycles per record
// (Section 3.2). The recorder charges a configurable per-record cycle cost
// to the simulated CPU so the overhead experiment can be re-run.

#ifndef TEMPO_SRC_TRACE_BUFFER_H_
#define TEMPO_SRC_TRACE_BUFFER_H_

#include <cstdint>
#include <limits>
#include <vector>

#include "src/obs/metrics.h"
#include "src/sim/cpu.h"
#include "src/trace/record.h"
#include "src/trace/relay.h"

namespace tempo {

// Per-record instrumentation cost measured in the paper (Section 3.2).
inline constexpr uint64_t kPaperLogCostCycles = 236;

// Destination for the records a simulated kernel logs. TraceRecorder is the
// study's; NullSink, TimerStatsCollector and TeeSink stand in for it.
class TraceSink {
 public:
  virtual ~TraceSink() = default;

  // Logs one record. Implementations may drop it (bounded buffers).
  virtual void Log(const TraceRecord& record) = 0;
};

// Sink that discards everything; stands in for the "unmodified kernel" runs
// used to measure instrumentation perturbation. It deliberately charges no
// CPU cycles — that is the point of the baseline — but it does count the
// records it swallows, so a perturbation experiment can still verify that
// both runs *attempted* the same amount of logging. The count is exposed as
// `discarded()` (not `dropped()`): nothing was lost to overflow as in a
// full TraceRecorder; every record was discarded by design.
class NullSink : public TraceSink {
 public:
  NullSink();

  void Log(const TraceRecord& record) override;

  uint64_t discarded() const { return discarded_; }

 private:
  uint64_t discarded_ = 0;
  obs::Counter* metric_discarded_;
};

// Ordered trace buffer with relayfs overflow semantics: once `capacity`
// records are held, new records are dropped and counted; existing records
// are never overwritten. Its obs series carry the `sink` label ("relay" for
// the Linux buffer, "etw" for the Vista session).
class TraceRecorder : public TraceSink {
 public:
  // Capacity of an ETW session: bounded only by memory, never drops.
  static constexpr size_t kUnbounded = std::numeric_limits<size_t>::max();

  // The default capacity is the paper's 512 MiB relayfs buffer expressed in
  // records (relay.h). Only a bounded recorder registers a drop counter.
  explicit TraceRecorder(const char* sink = "relay",
                         size_t capacity = kRelayDefaultCapacity);

  void Log(const TraceRecord& record) override;

  // Attaches a CPU to charge `cost_cycles` per Log attempt, dropped records
  // included: the instrumentation pays before it finds the buffer full.
  void AttachCpu(Cpu* cpu, uint64_t cost_cycles = kPaperLogCostCycles) {
    cpu_ = cpu;
    cost_cycles_ = cost_cycles;
  }

  // Tees every *accepted* record into `tap` as well (e.g. a channel a live
  // drainer polls while the run executes); nullptr disables. Dropped
  // records are not teed, so the live view matches the recorded trace.
  void SetLiveTap(RelayChannel* tap) { live_tap_ = tap; }

  const std::vector<TraceRecord>& records() const { return records_; }
  size_t capacity() const { return capacity_; }
  uint64_t dropped() const { return dropped_; }
  uint64_t logged() const { return records_.size(); }

  // Releases the stored records (e.g. to hand to the analysis pipeline
  // without copying) and resets logged() and dropped().
  std::vector<TraceRecord> TakeRecords();

 private:
  size_t capacity_;
  std::vector<TraceRecord> records_;
  uint64_t dropped_ = 0;  // since the last TakeRecords
  RelayChannel* live_tap_ = nullptr;
  Cpu* cpu_ = nullptr;
  uint64_t cost_cycles_ = kPaperLogCostCycles;
  obs::Counter* metric_logged_;
  obs::Counter* metric_dropped_;  // nullptr when unbounded
  obs::Counter* metric_charged_;
};

}  // namespace tempo

#endif  // TEMPO_SRC_TRACE_BUFFER_H_

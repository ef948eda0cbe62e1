// PipelineRunner: parallel, streaming execution of AnalysisPasses.
//
// The runner partitions a trace's chunks into contiguous ranges, one per
// worker thread; each worker streams its range through private forks of
// every pass, and the partial states are merged back in trace order. The
// ordered-merge contract of pass.h then guarantees results — including
// rendered text — byte-identical to a serial run, for any worker count.
//
// Two inputs are supported: a TraceChunkReader (the streaming file path;
// each worker gets its own cursor and the trace is never materialized)
// and an in-memory record span (for traces already in memory, e.g. fresh
// workload runs), which is partitioned into synthetic chunks. Both run
// the same worker fan-out; only how a worker reads one chunk differs.
//
// Predicate pushdown: when EVERY pass declares a Predicate (pass.h) and
// the trace is v3, a chunk whose zone map no pass may match is skipped
// without being decoded — the passes never see its records, which is
// sound because a declared predicate promises the result ignores them.
// One pass with a null predicate pins every chunk, and v1/v2 chunks have
// no zones, so pushdown silently degrades to full streaming.
//
// Observability: the runner publishes per-run counters to the global
// obs registry (records/bytes/chunks fanned through the pipeline, worker
// count, total cycles, and per-pass merge cycles). The probe clock is
// only ever read from the calling thread — worker threads keep plain
// integer tallies — so the runner stays data-race-free (and deterministic
// under tempostat's virtual probe clock) no matter what clock is
// installed.

#ifndef TEMPO_SRC_ANALYSIS_PIPELINE_H_
#define TEMPO_SRC_ANALYSIS_PIPELINE_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/analysis/pass.h"
#include "src/trace/chunked.h"

namespace tempo {

struct PipelineOptions {
  // Worker threads; 0 means std::thread::hardware_concurrency(). The
  // effective count never exceeds the number of chunks.
  size_t jobs = 0;
  // Label for the obs counters this run contributes to.
  std::string stats_label = "trace";
};

// What one Run actually did.
struct PipelineStats {
  size_t jobs = 0;        // workers used
  uint64_t chunks = 0;    // chunks decoded and streamed
  uint64_t records = 0;   // records streamed
  uint64_t bytes = 0;     // fixed-width bytes those records represent
  uint64_t cycles = 0;    // probe-clock cycles for the whole run
  // Predicate pushdown (v3 traces only; zero elsewhere): chunks whose
  // zone map proved no pass needed them, and the on-disk bytes of the
  // chunks that were decoded.
  uint64_t chunks_skipped = 0;
  uint64_t encoded_bytes = 0;
};

class PipelineRunner {
 public:
  explicit PipelineRunner(PipelineOptions options = {}) : options_(std::move(options)) {}

  // Streams the file behind `reader` through `passes`. On a read failure
  // returns false with the reason in `*error` when given; pass state is
  // unspecified after a failure.
  bool Run(const TraceChunkReader& reader,
           const std::vector<std::unique_ptr<AnalysisPass>>& passes,
           TraceReadError* error = nullptr);

  // In-memory variant: partitions `records` into synthetic chunks of
  // `chunk_records` and runs the same fan-out/merge machinery.
  void Run(std::span<const TraceRecord> records,
           const std::vector<std::unique_ptr<AnalysisPass>>& passes,
           uint32_t chunk_records = kDefaultChunkRecords);

  const PipelineStats& stats() const { return stats_; }

 private:
  PipelineOptions options_;
  PipelineStats stats_;
};

}  // namespace tempo

#endif  // TEMPO_SRC_ANALYSIS_PIPELINE_H_

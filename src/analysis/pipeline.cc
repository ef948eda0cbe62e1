#include "src/analysis/pipeline.h"

#include <algorithm>
#include <optional>
#include <thread>
#include <utility>

#include "src/obs/metrics.h"
#include "src/obs/probe.h"
#include "src/trace/codec.h"

namespace tempo {

namespace {

// One worker's private world: forks of every pass plus plain tallies.
// Workers never touch the obs registry or the probe clock — both are
// main-thread-only — so this struct is all they write to.
struct WorkerState {
  std::vector<std::unique_ptr<AnalysisPass>> passes;
  uint64_t chunks = 0;
  uint64_t records = 0;
  uint64_t chunks_skipped = 0;
  uint64_t encoded_bytes = 0;
  bool failed = false;
  TraceReadError error = TraceReadError::kIo;
};

// Predicates of every pass, or empty when any pass needs the full trace
// (a null predicate) — in which case no chunk may ever be skipped.
std::vector<const Predicate*> PushdownPredicates(
    const std::vector<std::unique_ptr<AnalysisPass>>& passes) {
  std::vector<const Predicate*> predicates;
  predicates.reserve(passes.size());
  for (const auto& pass : passes) {
    const Predicate* predicate = pass->predicate();
    if (predicate == nullptr) {
      return {};
    }
    predicates.push_back(predicate);
  }
  return predicates;
}

// True when the zone map proves no predicate-carrying pass can match any
// record of the chunk. Callers only consult this when every pass
// declared a predicate.
bool SkipChunk(const std::vector<const Predicate*>& predicates, const ChunkZone& zone) {
  if (predicates.empty() || !zone.valid) {
    return false;
  }
  for (const Predicate* predicate : predicates) {
    if (predicate->MayMatch(zone)) {
      return false;
    }
  }
  return true;
}

// Union of every pass's declared field mask: a chunk is decoded once for
// all passes, so the cursor must materialize any field any of them reads.
uint16_t UnionFields(const std::vector<std::unique_ptr<AnalysisPass>>& passes) {
  uint16_t mask = 0;
  for (const auto& pass : passes) {
    mask |= pass->fields();
  }
  return passes.empty() ? kAllTraceFields : mask;
}

// Contiguous [begin, end) chunk ranges, one per worker, in trace order.
// The remainder of an uneven split lands on the earliest workers so
// ranges never differ by more than one chunk.
std::vector<std::pair<size_t, size_t>> PartitionChunks(size_t chunk_count, size_t jobs) {
  std::vector<std::pair<size_t, size_t>> ranges;
  ranges.reserve(jobs);
  const size_t base = chunk_count / jobs;
  const size_t extra = chunk_count % jobs;
  size_t begin = 0;
  for (size_t w = 0; w < jobs; ++w) {
    const size_t take = base + (w < extra ? 1 : 0);
    ranges.emplace_back(begin, begin + take);
    begin += take;
  }
  return ranges;
}

std::vector<std::unique_ptr<AnalysisPass>> ForkAll(
    const std::vector<std::unique_ptr<AnalysisPass>>& passes) {
  std::vector<std::unique_ptr<AnalysisPass>> forks;
  forks.reserve(passes.size());
  for (const auto& pass : passes) {
    forks.push_back(pass->Fork());
  }
  return forks;
}

// Folds worker states into the caller's passes (in worker order — each
// worker holds a contiguous, strictly later slice of the trace than the
// one before it, which is exactly the ordering Merge requires; the
// caller's passes start empty, a valid "nothing yet" left-hand side),
// then publishes run counters to the global registry. Main thread only.
PipelineStats MergeAndPublish(std::vector<WorkerState>& workers,
                              const std::vector<std::unique_ptr<AnalysisPass>>& passes,
                              uint64_t started, const std::string& label,
                              bool columnar) {
  std::vector<uint64_t> merge_cycles(passes.size(), 0);
  for (WorkerState& w : workers) {
    for (size_t p = 0; p < passes.size(); ++p) {
      const uint64_t t0 = obs::ProbeClockNow();
      passes[p]->Merge(std::move(*w.passes[p]));
      merge_cycles[p] += obs::ProbeClockNow() - t0;
    }
  }

  PipelineStats stats;
  stats.jobs = workers.size();
  for (const WorkerState& w : workers) {
    stats.chunks += w.chunks;
    stats.records += w.records;
    stats.chunks_skipped += w.chunks_skipped;
    stats.encoded_bytes += w.encoded_bytes;
  }
  stats.bytes = stats.records * kEncodedRecordSize;
  stats.cycles = obs::ProbeClockNow() - started;

  obs::Registry& registry = obs::Registry::Global();
  const obs::Labels labels = {{"trace", label}};
  registry
      .GetCounter("trace_pipeline_runs_total", labels,
                  "pipeline executions over this trace label")
      ->Inc();
  registry
      .GetCounter("trace_pipeline_records_total", labels,
                  "records streamed through the analysis pipeline")
      ->Inc(stats.records);
  registry
      .GetCounter("trace_pipeline_bytes_total", labels,
                  "encoded trace bytes streamed through the analysis pipeline")
      ->Inc(stats.bytes);
  registry
      .GetCounter("trace_pipeline_chunks_total", labels,
                  "trace chunks streamed through the analysis pipeline")
      ->Inc(stats.chunks);
  registry
      .GetCounter("trace_pipeline_cycles_total", labels,
                  "probe-clock cycles spent in pipeline runs")
      ->Inc(stats.cycles);
  registry.GetGauge("trace_pipeline_jobs", labels, "worker threads used by the last run")
      ->Set(static_cast<int64_t>(stats.jobs));
  if (columnar) {
    registry
        .GetCounter("trace_v3_chunks_decoded_total", labels,
                    "columnar chunks decoded by pipeline runs")
        ->Inc(stats.chunks);
    registry
        .GetCounter("trace_v3_chunks_skipped_total", labels,
                    "columnar chunks skipped via zone-map predicate pushdown")
        ->Inc(stats.chunks_skipped);
    registry
        .GetCounter("trace_v3_bytes_decoded_total", labels,
                    "on-disk bytes of the columnar chunks pipeline runs decoded")
        ->Inc(stats.encoded_bytes);
  }
  for (size_t p = 0; p < passes.size(); ++p) {
    obs::Labels pass_labels = labels;
    pass_labels.emplace_back("pass", passes[p]->name());
    registry
        .GetCounter("trace_pipeline_pass_merge_cycles_total", pass_labels,
                    "probe-clock cycles spent merging partial pass states")
        ->Inc(merge_cycles[p]);
  }
  return stats;
}

// The worker fan-out behind both Run overloads. Splits `chunk_count`
// chunks into contiguous ranges, one per worker with private forks of
// every pass, and feeds the forks each chunk `drain(i, &worker)` yields:
// its records, or nullopt for a chunk skipped or failed (a failure sets
// `failed`, which ends the worker's range). Each worker runs its own copy
// of `drain`, so a drain may hold per-worker state such as a cursor.
// Returns false, with the first failure in `*error` when given, or merges
// the workers in trace order into `*stats`.
template <typename Drain>
bool FanOut(const PipelineOptions& options, size_t chunk_count,
            const std::vector<std::unique_ptr<AnalysisPass>>& passes, const Drain& drain,
            bool columnar, PipelineStats* stats, TraceReadError* error) {
  const size_t jobs = EffectiveJobs(options.jobs, chunk_count);
  const auto ranges = PartitionChunks(chunk_count, jobs);

  std::vector<WorkerState> workers(jobs);
  for (WorkerState& w : workers) {
    w.passes = ForkAll(passes);
  }

  const uint64_t started = obs::ProbeClockNow();

  auto work = [&ranges, &workers, &drain](size_t w) {
    Drain own = drain;
    WorkerState& state = workers[w];
    for (size_t i = ranges[w].first; i < ranges[w].second && !state.failed; ++i) {
      const std::optional<std::span<const TraceRecord>> chunk = own(i, &state);
      if (!chunk.has_value()) {
        continue;
      }
      ++state.chunks;
      state.records += chunk->size();
      for (auto& pass : state.passes) {
        pass->Accumulate(*chunk);
      }
    }
  };

  if (jobs == 1) {
    work(0);
  } else {
    std::vector<std::thread> threads;
    threads.reserve(jobs);
    for (size_t w = 0; w < jobs; ++w) {
      threads.emplace_back(work, w);
    }
    for (std::thread& t : threads) {
      t.join();
    }
  }

  for (const WorkerState& w : workers) {
    if (w.failed) {
      if (error != nullptr) {
        *error = w.error;
      }
      return false;
    }
  }
  *stats = MergeAndPublish(workers, passes, started, options.stats_label, columnar);
  return true;
}

}  // namespace

bool PipelineRunner::Run(const TraceChunkReader& reader,
                         const std::vector<std::unique_ptr<AnalysisPass>>& passes,
                         TraceReadError* error) {
  // Empty when any pass needs the full trace; otherwise one predicate per
  // pass, consulted against each chunk's zone map before decoding.
  const std::vector<const Predicate*> predicates =
      passes.empty() ? std::vector<const Predicate*>{} : PushdownPredicates(passes);
  // Projection pushdown: on v3 traces the cursor decodes only the stripes
  // some pass declared it reads (v1/v2 cursors ignore the mask).
  const uint16_t field_mask = UnionFields(passes);

  auto drain = [&reader, &predicates, field_mask, cursor = reader.MakeCursor()](
                   size_t i, WorkerState* state) mutable
      -> std::optional<std::span<const TraceRecord>> {
    const TraceChunkRef& ref = reader.chunk(i);
    if (SkipChunk(predicates, ref.zone)) {
      ++state->chunks_skipped;
      return std::nullopt;
    }
    const std::span<const TraceRecord> chunk = cursor.Read(i, field_mask);
    if (!cursor.ok()) {
      state->failed = true;
      state->error = cursor.error();
      return std::nullopt;
    }
    state->encoded_bytes += ref.stored_bytes;
    return chunk;
  };

  return FanOut(options_, reader.chunk_count(), passes, drain,
                reader.version() == kTraceFileVersionColumnar, &stats_, error);
}

void PipelineRunner::Run(std::span<const TraceRecord> records,
                         const std::vector<std::unique_ptr<AnalysisPass>>& passes,
                         uint32_t chunk_records) {
  if (chunk_records == 0) {
    chunk_records = kDefaultChunkRecords;
  }
  const size_t chunk_count = (records.size() + chunk_records - 1) / chunk_records;

  auto drain = [records, chunk_records](size_t i, WorkerState* state)
      -> std::optional<std::span<const TraceRecord>> {
    const size_t first = i * static_cast<size_t>(chunk_records);
    const size_t count = std::min<size_t>(chunk_records, records.size() - first);
    state->encoded_bytes += count * kEncodedRecordSize;
    return records.subspan(first, count);
  };

  FanOut(options_, chunk_count, passes, drain, /*columnar=*/false, &stats_, nullptr);
}

}  // namespace tempo

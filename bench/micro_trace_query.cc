// micro_trace_query — columnar trace format (v3) storage and query gates.
//
// Generates the paper-shaped synthetic trace (same generator as
// micro_trace_pipeline), writes it as both chunked v2 and columnar v3,
// and proves the four v3 claims:
//
//   size:      the v3 file is at most 0.5x the v2 file;
//   encode:    serializing the trace as v3 costs at most 1.2x serializing
//              it as v2, per record (best of three each): the writer sizes
//              every stripe codec and writes only the winner, so a
//              columnar file need not cost much more to write than rows.
//              SerializeTrace encodes chunks on every core, so this gate
//              times the parallel writer; beside it, ungated, the same
//              chunks go through EncodeTraceChunk one after another on one
//              thread, the codecs' own cost per record;
//   scan:      an analysis scan that declares the fields it reads (a
//              per-op rate summary: timestamp + op) runs at least 2x
//              faster from v3 than from v2, with byte-identical rendered
//              output — projection pushdown decodes 2 of 10 stripes
//              where the row format must decode all 48 bytes of every
//              record. A full all-fields decode of both files is also
//              digest-compared (bit-identical records) and its timing
//              reported, unrated: materializing every field costs the
//              same columns-to-rows transpose no matter the layout.
//   selective: a query whose time window touches <10% of the chunks
//              decodes <10% of the payload bytes (zone-map pushdown),
//              with the answer identical to the full-scan v2 run and the
//              report byte-identical to a 4-worker run.
//
// The TempoLz block-codec variant (off by default in TraceWriteOptions)
// is measured alongside: its size and full-decode time land in the JSON
// so the disk-versus-scan tradeoff stays visible.
//
// 8M records by default (TEMPO_QUICK=1 drops to 1M, TEMPO_SMOKE=1 to
// 200k). Under TEMPO_SMOKE the wall-clock and fraction gates report
// "skipped: smoke run" — identity checks are always enforced. Results go
// to BENCH_trace_query.json in the working directory.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <sys/stat.h>
#include <thread>
#include <vector>

#include "src/analysis/pipeline.h"
#include "src/analysis/query.h"
#include "src/trace/chunked.h"
#include "src/trace/codec.h"
#include "src/trace/file.h"
#include "src/trace/predicate.h"

namespace tempo {
namespace {

constexpr double kScanSpeedupThreshold = 2.0;
constexpr double kEncodeRatioThreshold = 1.2;
constexpr double kSizeRatioThreshold = 0.5;
constexpr double kSelectiveFractionThreshold = 0.10;
// Small chunks: the v3 decode scratch stays cache-resident (the win
// erodes once a chunk's stripes outgrow L2) and even the smoke trace has
// enough chunks for a selective window to prove skipping.
constexpr uint32_t kChunkRecords = 4096;
constexpr int kScanReps = 3;

std::vector<CallsiteId> MakeSites(CallsiteRegistry* callsites) {
  const CallsiteId ip = callsites->Intern("net/ip");
  const CallsiteId tcp = callsites->Intern("net/tcp", ip);
  std::vector<CallsiteId> sites;
  sites.push_back(callsites->Intern("app/select"));
  sites.push_back(tcp);
  sites.push_back(callsites->Intern("net/tcp_retransmit", tcp));
  sites.push_back(callsites->Intern("kernel/watchdog"));
  sites.push_back(callsites->Intern("app/poll"));
  sites.push_back(callsites->Intern("kernel/writeback"));
  return sites;
}

// The micro_trace_pipeline generator: overlapping episodes, re-arms,
// cancels, expiries, user/kernel mix — the shapes the real workloads
// produce, at arbitrary scale.
std::vector<TraceRecord> GenerateTrace(size_t count,
                                       const std::vector<CallsiteId>& sites) {
  uint64_t state = 2008 * 0x9e3779b97f4a7c15ULL + 0x2545F4914F6CDD1DULL;
  auto next = [&state] {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  constexpr size_t kTimers = 4096;
  std::vector<bool> open(kTimers + 1, false);
  SimTime now = 0;
  std::vector<TraceRecord> records;
  records.reserve(count);
  while (records.size() < count) {
    now += static_cast<SimTime>(next() % 3) * kMillisecond;
    TraceRecord r;
    r.timestamp = now;
    r.timer = 1 + next() % kTimers;
    r.callsite = sites[next() % sites.size()];
    r.pid = static_cast<Pid>(next() % 4);
    if (r.pid != kKernelPid) {
      r.flags |= kFlagUser;
    }
    if (!open[r.timer]) {
      r.op = next() % 4 == 0 ? TimerOp::kBlock : TimerOp::kSet;
      open[r.timer] = true;
    } else {
      switch (next() % 6) {
        case 0:
        case 1:
          r.op = TimerOp::kCancel;
          open[r.timer] = false;
          break;
        case 2:
          r.op = TimerOp::kExpire;
          open[r.timer] = false;
          break;
        case 3:
          r.op = TimerOp::kUnblock;
          if (next() % 2 == 0) {
            r.flags |= kFlagWaitSatisfied;
          }
          open[r.timer] = false;
          break;
        default:
          r.op = TimerOp::kSet;
          break;
      }
    }
    if (r.op == TimerOp::kSet || r.op == TimerOp::kBlock) {
      r.timeout = next() % 16 == 0
                      ? static_cast<SimDuration>(7 + next() % 90) * kSecond
                      : static_cast<SimDuration>(1 + next() % 500) * kMillisecond;
      r.expiry = r.timestamp + r.timeout;
      if (!r.is_user() && next() % 2 == 0) {
        r.flags |= kFlagJiffyWheel;
      }
    }
    records.push_back(r);
  }
  return records;
}

// Best-of-N wall time of `run()`, in ns per record of `records`.
template <typename Run>
double BestNsPerRecord(size_t records, int reps, const Run& run) {
  double best = 0;
  for (int rep = 0; rep < reps; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    run();
    const auto t1 = std::chrono::steady_clock::now();
    const double ns = std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count() /
                      static_cast<double>(records);
    if (rep == 0 || ns < best) {
      best = ns;
    }
  }
  return best;
}

// SerializeTrace, in ns per record.
double SerializeNsPerRecord(const std::vector<TraceRecord>& records,
                            const CallsiteRegistry& callsites,
                            const TraceWriteOptions& options, int reps) {
  return BestNsPerRecord(records.size(), reps, [&] {
    const std::vector<uint8_t> bytes = SerializeTrace(records, callsites, options);
  });
}

// The trace's chunks encoded one after another on this thread, through
// EncodeTraceChunk into one reused buffer, in ns per record.
double ChunkCodecNsPerRecord(const std::vector<TraceRecord>& records,
                             const TraceWriteOptions& options, int reps) {
  V3EncodeScratch scratch;
  std::vector<uint8_t> out;
  return BestNsPerRecord(records.size(), reps, [&] {
    for (size_t first = 0; first < records.size(); first += options.chunk_records) {
      const std::span<const TraceRecord> chunk(
          records.data() + first,
          std::min<size_t>(options.chunk_records, records.size() - first));
      out.clear();
      EncodeTraceChunk(chunk, options, 0, &scratch, &out);
    }
  });
}

uint64_t FileBytes(const std::string& path) {
  struct stat st{};
  return ::stat(path.c_str(), &st) == 0 ? static_cast<uint64_t>(st.st_size) : 0;
}

// ---------------------------------------------------------------------------
// The gated scan: a per-op rate summary through the analysis pipeline.
// The pass reads only timestamp and op and says so via fields(), so the
// v3 cursor decodes 2 of the 10 stripes; the v2 cursor has no choice but
// to decode whole rows. Rendered output is deterministic and must be
// byte-identical across formats and worker counts.

constexpr size_t kOpCount = static_cast<uint8_t>(TimerOp::kUnblock) + 1;

class OpRatePass : public AnalysisPass {
 public:
  const char* name() const override { return "op_rate"; }
  std::unique_ptr<AnalysisPass> Fork() const override {
    return std::make_unique<OpRatePass>();
  }

  void Accumulate(std::span<const TraceRecord> records) override {
    for (const TraceRecord& r : records) {
      ++ops_[static_cast<uint8_t>(r.op)];
    }
    if (!records.empty()) {
      if (records_ == 0) {
        first_ = records.front().timestamp;
      }
      last_ = records.back().timestamp;
      records_ += records.size();
    }
  }

  void Merge(AnalysisPass&& other) override {
    auto& o = static_cast<OpRatePass&>(other);
    for (size_t i = 0; i < kOpCount; ++i) {
      ops_[i] += o.ops_[i];
    }
    if (o.records_ != 0) {
      if (records_ == 0) {
        first_ = o.first_;
      }
      last_ = o.last_;
      records_ += o.records_;
    }
  }

  void Render(RenderSink& sink) override { sink.Section("op_rate", Report()); }

  uint16_t fields() const override { return kFieldTimestamp | kFieldOp; }

  std::string Report() const {
    char head[128];
    std::snprintf(head, sizeof(head), "records %llu window [%lld, %lld]",
                  static_cast<unsigned long long>(records_),
                  static_cast<long long>(first_), static_cast<long long>(last_));
    std::string report = head;
    for (size_t i = 0; i < kOpCount; ++i) {
      char row[64];
      std::snprintf(row, sizeof(row), " op%zu=%llu", i,
                    static_cast<unsigned long long>(ops_[i]));
      report += row;
    }
    report += "\n";
    return report;
  }

 private:
  uint64_t ops_[kOpCount] = {};
  uint64_t records_ = 0;
  SimTime first_ = 0;
  SimTime last_ = 0;
};

struct PipelineScan {
  std::string report;
  double millis = 0;
  uint64_t records = 0;
  bool ok = false;
};

// Best-of-N projected scan via the pipeline; every repetition must render
// the same report.
PipelineScan ScanPipeline(const TraceChunkReader& reader, size_t jobs, int reps) {
  PipelineScan best;
  for (int rep = 0; rep < reps; ++rep) {
    std::vector<std::unique_ptr<AnalysisPass>> passes;
    passes.push_back(std::make_unique<OpRatePass>());
    PipelineOptions options;
    options.jobs = jobs;
    options.stats_label = "bench_scan";
    PipelineRunner runner(options);
    TraceReadError error = TraceReadError::kIo;
    const auto t0 = std::chrono::steady_clock::now();
    if (!runner.Run(reader, passes, &error)) {
      std::fprintf(stderr, "error: scan run failed: %s\n", TraceReadErrorName(error));
      return best;
    }
    const auto t1 = std::chrono::steady_clock::now();
    const double millis =
        std::chrono::duration_cast<std::chrono::microseconds>(t1 - t0).count() / 1000.0;
    const std::string report = static_cast<OpRatePass*>(passes[0].get())->Report();
    if (rep > 0 && report != best.report) {
      std::fprintf(stderr, "error: scan report unstable across repetitions\n");
      return best;
    }
    if (rep == 0 || millis < best.millis) {
      best.millis = millis;
    }
    best.report = report;
    best.records = runner.stats().records;
  }
  best.ok = true;
  return best;
}

// ---------------------------------------------------------------------------
// Full-decode identity: FNV-1a over every field of every record, in trace
// order — two scans with the same digest decoded bit-identical records.

struct ScanResult {
  uint64_t digest = 0xcbf29ce484222325ULL;
  uint64_t records = 0;
  double millis = 0;
  bool ok = false;
};

inline uint64_t Mix(uint64_t h, uint64_t v) {
  h ^= v;
  return h * 0x100000001b3ULL;
}

ScanResult ScanOnce(const TraceChunkReader& reader) {
  ScanResult result;
  TraceChunkReader::Cursor cursor = reader.MakeCursor();
  const auto t0 = std::chrono::steady_clock::now();
  for (size_t i = 0; i < reader.chunk_count(); ++i) {
    const auto chunk = cursor.Read(i);
    if (!cursor.ok()) {
      return result;
    }
    for (const TraceRecord& r : chunk) {
      uint64_t h = result.digest;
      h = Mix(h, static_cast<uint64_t>(r.timestamp));
      h = Mix(h, r.timer);
      h = Mix(h, static_cast<uint64_t>(r.timeout));
      h = Mix(h, static_cast<uint64_t>(r.expiry));
      h = Mix(h, r.callsite);
      h = Mix(h, r.stack);
      h = Mix(h, static_cast<uint64_t>(static_cast<uint16_t>(r.pid)));
      h = Mix(h, static_cast<uint64_t>(static_cast<uint16_t>(r.tid)));
      h = Mix(h, static_cast<uint64_t>(r.op));
      h = Mix(h, r.flags);
      result.digest = h;
    }
    result.records += chunk.size();
  }
  const auto t1 = std::chrono::steady_clock::now();
  result.millis =
      std::chrono::duration_cast<std::chrono::microseconds>(t1 - t0).count() / 1000.0;
  result.ok = true;
  return result;
}

// Best-of-N full decode; the digest must be stable across repetitions.
ScanResult ScanBest(const TraceChunkReader& reader, int reps) {
  ScanResult best;
  for (int rep = 0; rep < reps; ++rep) {
    const ScanResult r = ScanOnce(reader);
    if (!r.ok) {
      return r;
    }
    if (rep == 0 || r.millis < best.millis) {
      best = r;
    }
  }
  return best;
}

// ---------------------------------------------------------------------------
// One pushed-down query: records of a time window, grouped by call site.
// `report` is the rendered JSON (byte-comparable between runs over the
// same file); `result` is just the query answer — matched count and the
// group aggregates — which must also match across file formats, where
// the diagnostic "scanned" count legitimately differs (v2 has no zone
// maps to skip by).

struct QueryRun {
  std::string report;
  std::string result;
  PipelineStats stats;
  bool ok = false;
};

std::string CanonicalResult(const QueryPass& pass) {
  std::string s = std::to_string(pass.matched());
  for (const auto& [key, group] : pass.groups()) {
    char row[160];
    std::snprintf(row, sizeof(row), "|%llu:%llu,%llu,%llu,%lld,%lld",
                  static_cast<unsigned long long>(key),
                  static_cast<unsigned long long>(group.records),
                  static_cast<unsigned long long>(group.sets),
                  static_cast<unsigned long long>(group.timeout_sum),
                  static_cast<long long>(group.first), static_cast<long long>(group.last));
    s += row;
  }
  return s;
}

QueryRun RunQuery(const TraceChunkReader& reader, SimTime begin, SimTime end,
                  size_t jobs) {
  QueryRun run;
  QueryOptions options;
  options.predicate.time_begin = begin;
  options.predicate.time_end = end;
  options.group_by = QueryGroupBy::kCallsite;
  std::vector<std::unique_ptr<AnalysisPass>> passes;
  passes.push_back(std::make_unique<QueryPass>(options, &reader.callsites()));
  PipelineOptions pipeline_options;
  pipeline_options.jobs = jobs;
  pipeline_options.stats_label = "bench_query";
  PipelineRunner runner(pipeline_options);
  TraceReadError error = TraceReadError::kIo;
  if (!runner.Run(reader, passes, &error)) {
    std::fprintf(stderr, "error: query run failed: %s\n", TraceReadErrorName(error));
    return run;
  }
  const QueryPass& pass = *static_cast<QueryPass*>(passes[0].get());
  run.report = pass.RenderJson();
  run.result = CanonicalResult(pass);
  run.stats = runner.stats();
  run.ok = true;
  return run;
}

}  // namespace
}  // namespace tempo

int main() {
  using namespace tempo;
  const char* smoke_env = std::getenv("TEMPO_SMOKE");
  const char* quick_env = std::getenv("TEMPO_QUICK");
  const bool smoke = smoke_env != nullptr && smoke_env[0] == '1';
  const bool quick = !smoke && quick_env != nullptr && quick_env[0] == '1';
  const size_t record_count = smoke ? 200'000 : quick ? 1'000'000 : 8'000'000;
  const unsigned cores = std::thread::hardware_concurrency();

  std::printf("micro_trace_query: %zu records, chunk_records %u, %u cores%s\n",
              record_count, kChunkRecords, cores,
              smoke ? " (TEMPO_SMOKE)" : quick ? " (TEMPO_QUICK)" : "");

  CallsiteRegistry callsites;
  const auto sites = MakeSites(&callsites);
  const std::string v2_path = "bench_trace_query_v2.trc";
  const std::string v3_path = "bench_trace_query_v3.trc";
  const std::string lz_path = "bench_trace_query_v3lz.trc";
  SimTime trace_begin = 0;
  SimTime trace_end = 0;
  double v2_encode_ns = 0;
  double v3_encode_ns = 0;
  double v2_codec_ns = 0;
  double v3_codec_ns = 0;
  {
    std::printf("generating synthetic trace...\n");
    auto records = GenerateTrace(record_count, sites);
    trace_begin = records.front().timestamp;
    trace_end = records.back().timestamp;
    TraceWriteOptions options;
    options.chunk_records = kChunkRecords;
    options.version = kTraceFileVersionChunked;
    if (!WriteTraceFile(v2_path, records, callsites, options)) {
      std::fprintf(stderr, "error: cannot write %s\n", v2_path.c_str());
      return 1;
    }
    options.version = kTraceFileVersionColumnar;
    if (!WriteTraceFile(v3_path, records, callsites, options)) {
      std::fprintf(stderr, "error: cannot write %s\n", v3_path.c_str());
      return 1;
    }
    options.block_codec = BlockCodecId::kTempoLz;
    if (!WriteTraceFile(lz_path, records, callsites, options)) {
      std::fprintf(stderr, "error: cannot write %s\n", lz_path.c_str());
      return 1;
    }

    // --- encode gate: in-memory serialize, v2 rows vs v3 columns -------
    options.block_codec = BlockCodecId::kNone;
    options.version = kTraceFileVersionChunked;
    v2_encode_ns = SerializeNsPerRecord(records, callsites, options, kScanReps);
    options.version = kTraceFileVersionColumnar;
    v3_encode_ns = SerializeNsPerRecord(records, callsites, options, kScanReps);
    v3_codec_ns = ChunkCodecNsPerRecord(records, options, kScanReps);
    options.version = kTraceFileVersionChunked;
    v2_codec_ns = ChunkCodecNsPerRecord(records, options, kScanReps);
  }  // the records vector dies here: everything below streams from disk
  const double encode_ratio = v2_encode_ns > 0 ? v3_encode_ns / v2_encode_ns : 0;
  const double codec_ratio = v2_codec_ns > 0 ? v3_codec_ns / v2_codec_ns : 0;
  std::printf("encode (serialize, %u cores): v2 %.1f ns/rec, v3 %.1f ns/rec (%.2fx)\n", cores,
              v2_encode_ns, v3_encode_ns, encode_ratio);
  std::printf("encode (one thread, ungated): v2 %.1f ns/rec, v3 %.1f ns/rec (%.2fx)\n",
              v2_codec_ns, v3_codec_ns, codec_ratio);

  const uint64_t v2_bytes = FileBytes(v2_path);
  const uint64_t v3_bytes = FileBytes(v3_path);
  const uint64_t lz_bytes = FileBytes(lz_path);
  const double size_ratio = v2_bytes == 0 ? 1.0 : static_cast<double>(v3_bytes) / v2_bytes;
  std::printf("size: v2 %llu bytes, v3 %llu (%.4fx, %.2f B/rec), v3+lz %llu (%.4fx)\n",
              static_cast<unsigned long long>(v2_bytes),
              static_cast<unsigned long long>(v3_bytes), size_ratio,
              static_cast<double>(v3_bytes) / record_count,
              static_cast<unsigned long long>(lz_bytes),
              v2_bytes == 0 ? 1.0 : static_cast<double>(lz_bytes) / v2_bytes);

  TraceReadError error = TraceReadError::kIo;
  const auto v2_reader = TraceChunkReader::Open(v2_path, &error);
  const auto v3_reader =
      v2_reader.has_value() ? TraceChunkReader::Open(v3_path, &error) : std::nullopt;
  const auto lz_reader =
      v3_reader.has_value() ? TraceChunkReader::Open(lz_path, &error) : std::nullopt;
  if (!lz_reader.has_value()) {
    std::fprintf(stderr, "error: cannot reopen traces: %s\n", TraceReadErrorName(error));
    return 1;
  }

  // --- scan gate: projected per-op rate scan, v2 vs v3 -----------------
  const PipelineScan v2_pipe = ScanPipeline(*v2_reader, 1, kScanReps);
  const PipelineScan v3_pipe = ScanPipeline(*v3_reader, 1, kScanReps);
  const PipelineScan v3_pipe4 = ScanPipeline(*v3_reader, 4, 1);
  if (!v2_pipe.ok || !v3_pipe.ok || !v3_pipe4.ok) {
    return 1;
  }
  const bool scan_identical =
      v2_pipe.report == v3_pipe.report && v3_pipe.report == v3_pipe4.report;
  const double scan_speedup = v3_pipe.millis > 0 ? v2_pipe.millis / v3_pipe.millis : 0;
  std::printf("scan (projected ts|op): v2 %.1f ms, v3 %.1f ms (%.2fx), reports %s\n",
              v2_pipe.millis, v3_pipe.millis, scan_speedup,
              scan_identical ? "identical" : "DIFFER");

  // --- full-decode identity: every field of every record ---------------
  const ScanResult v2_scan = ScanBest(*v2_reader, kScanReps);
  const ScanResult v3_scan = ScanBest(*v3_reader, kScanReps);
  const ScanResult lz_scan = ScanBest(*lz_reader, kScanReps);
  if (!v2_scan.ok || !v3_scan.ok || !lz_scan.ok) {
    std::fprintf(stderr, "error: full-decode scan failed\n");
    return 1;
  }
  const bool decode_identical = v2_scan.digest == v3_scan.digest &&
                                v2_scan.digest == lz_scan.digest &&
                                v2_scan.records == v3_scan.records &&
                                v2_scan.records == lz_scan.records;
  const double decode_speedup = v3_scan.millis > 0 ? v2_scan.millis / v3_scan.millis : 0;
  std::printf("full decode: v2 %.1f ms, v3 %.1f ms (%.2fx), v3+lz %.1f ms, records %s\n",
              v2_scan.millis, v3_scan.millis, decode_speedup, lz_scan.millis,
              decode_identical ? "identical" : "DIFFER");

  // --- selective gate: a 2%-of-the-trace window ------------------------
  const SimTime span = trace_end - trace_begin;
  const SimTime window_begin = trace_begin + span * 60 / 100;
  const SimTime window_end = trace_begin + span * 62 / 100;
  const QueryRun v3_query = RunQuery(*v3_reader, window_begin, window_end, 1);
  const QueryRun v3_query4 = RunQuery(*v3_reader, window_begin, window_end, 4);
  const QueryRun v2_query = RunQuery(*v2_reader, window_begin, window_end, 1);
  if (!v3_query.ok || !v3_query4.ok || !v2_query.ok) {
    return 1;
  }
  const bool query_identical =
      v3_query.result == v2_query.result && v3_query.report == v3_query4.report;
  const double chunk_fraction =
      static_cast<double>(v3_query.stats.chunks) / v3_reader->chunk_count();
  const double byte_fraction =
      static_cast<double>(v3_query.stats.encoded_bytes) / v3_reader->payload_bytes();
  std::printf("selective: decoded %llu of %zu chunks (%.1f%%), %llu of %llu bytes "
              "(%.1f%%), reports %s\n",
              static_cast<unsigned long long>(v3_query.stats.chunks),
              v3_reader->chunk_count(), chunk_fraction * 100,
              static_cast<unsigned long long>(v3_query.stats.encoded_bytes),
              static_cast<unsigned long long>(v3_reader->payload_bytes()),
              byte_fraction * 100, query_identical ? "identical" : "DIFFER");

  std::remove(v2_path.c_str());
  std::remove(v3_path.c_str());
  std::remove(lz_path.c_str());

  // --- gates -----------------------------------------------------------
  // Identity is enforced unconditionally; the wall-clock and fraction
  // gates are only meaningful at full scale, so smoke runs mark them
  // skipped rather than vacuously passed.
  const bool identities_ok = scan_identical && decode_identical && query_identical;
  std::string scan_status;
  std::string encode_status;
  std::string size_status;
  std::string selective_status;
  bool gate_failed = false;
  if (smoke) {
    scan_status = "skipped: smoke run";
    encode_status = "skipped: smoke run";
    selective_status = "skipped: smoke run";
  } else {
    scan_status = scan_speedup >= kScanSpeedupThreshold ? "pass" : "fail";
    encode_status = encode_ratio <= kEncodeRatioThreshold ? "pass" : "fail";
    selective_status = chunk_fraction < kSelectiveFractionThreshold &&
                               byte_fraction < kSelectiveFractionThreshold
                           ? "pass"
                           : "fail";
  }
  // The size ratio is scale-independent enough to gate even in smoke.
  size_status = size_ratio <= kSizeRatioThreshold ? "pass" : "fail";
  gate_failed = scan_status == "fail" || encode_status == "fail" || size_status == "fail" ||
                selective_status == "fail";
  std::printf("scan gate (>=%.1fx): %s\n", kScanSpeedupThreshold, scan_status.c_str());
  std::printf("encode gate (<=%.1fx): %s\n", kEncodeRatioThreshold, encode_status.c_str());
  std::printf("size gate (<=%.2fx): %s\n", kSizeRatioThreshold, size_status.c_str());
  std::printf("selective gate (<%.0f%% chunks and bytes): %s\n",
              kSelectiveFractionThreshold * 100, selective_status.c_str());

  std::FILE* json = std::fopen("BENCH_trace_query.json", "w");
  if (json != nullptr) {
    std::fprintf(json, "{\n");
    std::fprintf(json, "  \"bench\": \"micro_trace_query\",\n");
    std::fprintf(json, "  \"records\": %zu,\n", record_count);
    std::fprintf(json, "  \"chunk_records\": %u,\n", kChunkRecords);
    std::fprintf(json, "  \"hardware_concurrency\": %u,\n", cores);
    std::fprintf(json, "  \"quick\": %s,\n", quick ? "true" : "false");
    std::fprintf(json, "  \"smoke\": %s,\n", smoke ? "true" : "false");
    std::fprintf(json, "  \"v2_bytes\": %llu,\n",
                 static_cast<unsigned long long>(v2_bytes));
    std::fprintf(json, "  \"v3_bytes\": %llu,\n",
                 static_cast<unsigned long long>(v3_bytes));
    std::fprintf(json, "  \"v3_bytes_per_record\": %.3f,\n",
                 static_cast<double>(v3_bytes) / record_count);
    std::fprintf(json,
                 "  \"v3_lz\": {\"bytes\": %llu, \"bytes_per_record\": %.3f, "
                 "\"full_decode_millis\": %.1f},\n",
                 static_cast<unsigned long long>(lz_bytes),
                 static_cast<double>(lz_bytes) / record_count, lz_scan.millis);
    std::fprintf(json,
                 "  \"scan\": {\"fields\": \"timestamp|op\", \"v2_millis\": %.1f, "
                 "\"v3_millis\": %.1f, \"speedup\": %.3f, \"identical\": %s},\n",
                 v2_pipe.millis, v3_pipe.millis, scan_speedup,
                 scan_identical ? "true" : "false");
    std::fprintf(json,
                 "  \"full_decode\": {\"v2_millis\": %.1f, \"v3_millis\": %.1f, "
                 "\"speedup\": %.3f, \"identical\": %s},\n",
                 v2_scan.millis, v3_scan.millis, decode_speedup,
                 decode_identical ? "true" : "false");
    std::fprintf(json,
                 "  \"encode\": {\"v2_ns_per_record\": %.1f, \"v3_ns_per_record\": %.1f, "
                 "\"ratio\": %.3f},\n",
                 v2_encode_ns, v3_encode_ns, encode_ratio);
    std::fprintf(json,
                 "  \"encode_one_thread\": {\"v2_ns_per_record\": %.1f, "
                 "\"v3_ns_per_record\": %.1f, \"ratio\": %.3f},\n",
                 v2_codec_ns, v3_codec_ns, codec_ratio);
    std::fprintf(json,
                 "  \"selective\": {\"chunks_decoded\": %llu, \"chunks_skipped\": %llu, "
                 "\"chunk_fraction\": %.4f, \"bytes_decoded\": %llu, "
                 "\"byte_fraction\": %.4f, \"identical\": %s},\n",
                 static_cast<unsigned long long>(v3_query.stats.chunks),
                 static_cast<unsigned long long>(v3_query.stats.chunks_skipped),
                 chunk_fraction,
                 static_cast<unsigned long long>(v3_query.stats.encoded_bytes),
                 byte_fraction, query_identical ? "true" : "false");
    std::fprintf(json, "  \"gates\": {\n");
    std::fprintf(json,
                 "    \"scan\": {\"threshold\": %.1f, \"speedup\": %.3f, "
                 "\"status\": \"%s\"},\n",
                 kScanSpeedupThreshold, scan_speedup, scan_status.c_str());
    std::fprintf(json,
                 "    \"encode\": {\"threshold\": %.1f, \"ratio\": %.3f, "
                 "\"status\": \"%s\"},\n",
                 kEncodeRatioThreshold, encode_ratio, encode_status.c_str());
    std::fprintf(json,
                 "    \"size\": {\"threshold\": %.2f, \"ratio\": %.4f, "
                 "\"status\": \"%s\"},\n",
                 kSizeRatioThreshold, size_ratio, size_status.c_str());
    std::fprintf(json,
                 "    \"selective\": {\"threshold\": %.2f, \"chunk_fraction\": %.4f, "
                 "\"byte_fraction\": %.4f, \"status\": \"%s\"}\n",
                 kSelectiveFractionThreshold, chunk_fraction, byte_fraction,
                 selective_status.c_str());
    std::fprintf(json, "  }\n");
    std::fprintf(json, "}\n");
    std::fclose(json);
    std::printf("wrote BENCH_trace_query.json\n");
  }

  if (!identities_ok) {
    std::fprintf(stderr, "error: v2/v3 or serial/parallel outputs differ\n");
    return 1;
  }
  return gate_failed ? 1 : 0;
}

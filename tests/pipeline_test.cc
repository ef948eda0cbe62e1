// Tests for the parallel streaming analysis pipeline: for any chunking and
// any worker count, the trace-order merge of partial pass states must
// reproduce the serial analyses byte for byte, and the chunk reader must
// reject damaged files with the right TraceReadError.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/analysis/classify.h"
#include "src/analysis/histogram.h"
#include "src/analysis/origins.h"
#include "src/analysis/pipeline.h"
#include "src/analysis/provenance.h"
#include "src/analysis/rates.h"
#include "src/analysis/scatter.h"
#include "src/analysis/summary.h"
#include "src/trace/chunked.h"
#include "src/trace/file.h"
#include "tests/trace_sweep.h"

namespace tempo {
namespace {

// Collects rendered sections for comparison.
class StringSink : public RenderSink {
 public:
  void Section(const std::string& key, const std::string& text) override {
    sections_.emplace_back(key, text);
  }
  const std::vector<std::pair<std::string, std::string>>& sections() const {
    return sections_;
  }

 private:
  std::vector<std::pair<std::string, std::string>> sections_;
};

std::vector<CallsiteId> MakeSites(CallsiteRegistry* callsites) {
  const CallsiteId ip = callsites->Intern("net/ip");
  const CallsiteId tcp = callsites->Intern("net/tcp", ip);
  std::vector<CallsiteId> sites;
  sites.push_back(callsites->Intern("app/select"));
  sites.push_back(tcp);
  sites.push_back(callsites->Intern("net/tcp_retransmit", tcp));
  sites.push_back(callsites->Intern("kernel/watchdog"));
  sites.push_back(callsites->Intern("app/poll"));
  return sites;
}

// A deterministic synthetic trace with the shapes that stress every pass:
// overlapping episodes that straddle any chunk boundary, re-arms, timed-out
// and satisfied unblocks, repeated timestamps (ties at the derived trace
// end), user and kernel records, jiffy-wheel flags, and a spread of
// timeout values from milliseconds to minutes. With `dynamic`, half the
// arms are Vista-style kFlagDynamicAlloc ones, whose ids recur across
// call-sites, pids and tids, so (call-site, pid, tid) clusters cross
// chunk boundaries too.
std::vector<TraceRecord> GenerateTrace(uint64_t seed, size_t count,
                                       const std::vector<CallsiteId>& sites,
                                       bool dynamic = false) {
  uint64_t state = seed * 0x9e3779b97f4a7c15ULL + 0x2545F4914F6CDD1DULL;
  auto next = [&state] {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  constexpr size_t kTimers = 40;
  bool open[kTimers + 1] = {};
  SimTime now = 0;
  std::vector<TraceRecord> records;
  records.reserve(count);
  while (records.size() < count) {
    now += static_cast<SimTime>(next() % 3) * kMillisecond;  // ties allowed
    TraceRecord r;
    r.timestamp = now;
    r.timer = 1 + next() % kTimers;
    r.callsite = sites[next() % sites.size()];
    r.pid = static_cast<Pid>(next() % 4);  // 0 is kKernelPid
    if (r.pid != kKernelPid) {
      r.flags |= kFlagUser;
    }
    if (!open[r.timer]) {
      if (next() % 8 == 0) {
        r.op = TimerOp::kInit;
      } else {
        r.op = next() % 4 == 0 ? TimerOp::kBlock : TimerOp::kSet;
        open[r.timer] = true;
      }
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
          r.op = TimerOp::kSet;  // re-arm
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
      if (dynamic && next() % 2 == 0) {
        r.flags |= kFlagDynamicAlloc;
        r.tid = static_cast<Tid>(next() % 3);
      }
    }
    records.push_back(r);
  }
  return records;
}

// The full tracestat-style pass set plus the passes tracestat doesn't run
// (rates, scatter, a countdown-filtered histogram) so every merge path is
// covered.
std::vector<std::unique_ptr<AnalysisPass>> MakePasses(const CallsiteRegistry& callsites) {
  std::vector<std::unique_ptr<AnalysisPass>> passes;
  passes.push_back(std::make_unique<SummaryPass>("t"));
  passes.push_back(std::make_unique<ClassifyPass>());
  passes.push_back(std::make_unique<HistogramPass>());
  HistogramOptions filtered;
  filtered.exclude_countdowns = true;
  filtered.min_percent = 0.5;
  passes.push_back(std::make_unique<HistogramPass>(filtered, true));
  OriginOptions origin_options;
  origin_options.min_percent = 0.5;
  passes.push_back(std::make_unique<OriginsPass>(&callsites, origin_options));
  passes.push_back(std::make_unique<ProvenancePass>(&callsites));
  passes.push_back(std::make_unique<BlamePass>(&callsites, 2 * kSecond, 20 * kSecond));
  RateGrouping grouping;
  grouping.pid_labels[1] = "App";
  passes.push_back(std::make_unique<RatesPass>(grouping, RateOptions{}));
  passes.push_back(std::make_unique<ScatterPass>());
  return passes;
}

std::vector<std::pair<std::string, std::string>> RenderAll(
    const std::vector<std::unique_ptr<AnalysisPass>>& passes) {
  StringSink sink;
  for (const auto& pass : passes) {
    pass->Render(sink);
  }
  return sink.sections();
}

// Serial reference: every record folded into fresh passes in one call.
std::vector<std::pair<std::string, std::string>> SerialReference(
    const std::vector<TraceRecord>& records, const CallsiteRegistry& callsites) {
  auto passes = MakePasses(callsites);
  for (const auto& pass : passes) {
    pass->Accumulate(std::span<const TraceRecord>(records.data(), records.size()));
  }
  return RenderAll(passes);
}

void ExpectSameSections(const std::vector<std::pair<std::string, std::string>>& expected,
                        const std::vector<std::pair<std::string, std::string>>& actual,
                        const std::string& context) {
  ASSERT_EQ(expected.size(), actual.size()) << context;
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(expected[i].first, actual[i].first) << context;
    EXPECT_EQ(expected[i].second, actual[i].second)
        << context << ", section " << expected[i].first;
  }
}

TEST(PipelineTest, ParallelMatchesSerialForAnyChunkingAndWorkerCount) {
  for (const uint64_t seed : {uint64_t{1}, uint64_t{2008}, uint64_t{7}}) {
    // The third trace arms dynamic-alloc timers.
    const bool dynamic = seed == 7;
    CallsiteRegistry callsites;
    const auto sites = MakeSites(&callsites);
    const auto records = GenerateTrace(seed, 6000, sites, dynamic);
    const auto expected = SerialReference(records, callsites);

    const struct {
      size_t jobs;
      uint32_t chunk_records;
    } cases[] = {{1, 64}, {2, 97}, {3, 1}, {4, 1000}, {7, 33}, {8, 251}};
    for (const auto& c : cases) {
      auto passes = MakePasses(callsites);
      PipelineOptions options;
      options.jobs = c.jobs;
      PipelineRunner runner(options);
      runner.Run(std::span<const TraceRecord>(records.data(), records.size()), passes,
                 c.chunk_records);
      ExpectSameSections(expected, RenderAll(passes),
                         "seed " + std::to_string(seed) + ", jobs " +
                             std::to_string(c.jobs) + ", chunk " +
                             std::to_string(c.chunk_records));
    }
  }
}

TEST(PipelineTest, SummaryConcurrencyExactAcrossChunkBoundaries) {
  // Five timers armed before any completes: the concurrency maximum spans
  // several chunk boundaries when chunk_records is tiny.
  CallsiteRegistry callsites;
  const CallsiteId site = callsites.Intern("x");
  std::vector<TraceRecord> records;
  for (TimerId t = 1; t <= 5; ++t) {
    TraceRecord r;
    r.timestamp = static_cast<SimTime>(t) * kSecond;
    r.timer = t;
    r.callsite = site;
    r.op = TimerOp::kSet;
    r.timeout = kMinute;
    r.expiry = r.timestamp + r.timeout;
    records.push_back(r);
  }
  for (TimerId t = 1; t <= 5; ++t) {
    TraceRecord r;
    r.timestamp = (10 + static_cast<SimTime>(t)) * kSecond;
    r.timer = t;
    r.callsite = site;
    r.op = TimerOp::kCancel;
    records.push_back(r);
  }
  SummaryPass serial_pass("t");
  serial_pass.Accumulate(records);
  const TraceSummary serial = serial_pass.Result();
  EXPECT_EQ(serial.concurrency, 5u);

  for (const size_t jobs : {size_t{2}, size_t{3}, size_t{5}}) {
    std::vector<std::unique_ptr<AnalysisPass>> passes;
    passes.push_back(std::make_unique<SummaryPass>("t"));
    PipelineOptions options;
    options.jobs = jobs;
    PipelineRunner runner(options);
    runner.Run(std::span<const TraceRecord>(records.data(), records.size()), passes, 2);
    const TraceSummary merged =
        static_cast<SummaryPass&>(*passes.front()).Result();
    EXPECT_EQ(merged.concurrency, serial.concurrency) << "jobs " << jobs;
    EXPECT_EQ(merged.timers, serial.timers);
    EXPECT_EQ(merged.accesses, serial.accesses);
    EXPECT_EQ(merged.set, serial.set);
    EXPECT_EQ(merged.canceled, serial.canceled);
    EXPECT_EQ(merged.expired, serial.expired);
  }
}

TEST(PipelineTest, EmptyTraceRunsCleanly) {
  CallsiteRegistry callsites;
  const auto expected = SerialReference({}, callsites);
  auto passes = MakePasses(callsites);
  PipelineOptions options;
  options.jobs = 4;
  PipelineRunner runner(options);
  runner.Run(std::span<const TraceRecord>(), passes);
  ExpectSameSections(expected, RenderAll(passes), "empty trace");
  EXPECT_EQ(runner.stats().records, 0u);
}

class PipelineFileTest : public ::testing::Test {
 protected:
  std::string WriteTempTrace(const std::vector<TraceRecord>& records,
                             const CallsiteRegistry& callsites,
                             const TraceWriteOptions& options, const char* tag) {
    const std::string path =
        ::testing::TempDir() + "/tempo_pipeline_" + tag + ".trc";
    EXPECT_TRUE(WriteTraceFile(path, records, callsites, options));
    paths_.push_back(path);
    return path;
  }

  void TearDown() override {
    for (const std::string& path : paths_) {
      std::remove(path.c_str());
    }
  }

  std::vector<std::string> paths_;
};

TEST_F(PipelineFileTest, StreamedFileMatchesSerialReadOfTheSameFile) {
  CallsiteRegistry callsites;
  const auto sites = MakeSites(&callsites);
  const auto records = GenerateTrace(7, 5000, sites);

  TraceWriteOptions v2;
  v2.chunk_records = 173;  // uneven final chunk
  const std::string v2_path = WriteTempTrace(records, callsites, v2, "v2");
  TraceWriteOptions v1;
  v1.version = kTraceFileVersion;
  const std::string v1_path = WriteTempTrace(records, callsites, v1, "v1");

  for (const std::string& path : {v2_path, v1_path}) {
    // The reference is a serial pass over the records as decoded from this
    // very file (the codec quantises the redundant expiry field on disk,
    // so comparing against the pre-serialisation records would conflate
    // codec precision with pipeline correctness).
    const Sweep loaded = SweepFile(path);
    ASSERT_TRUE(loaded.ok()) << path << ": " << TraceReadErrorName(*loaded.error);
    const auto expected = SerialReference(loaded.records, loaded.callsites);

    TraceReadError error = TraceReadError::kIo;
    const auto reader = TraceChunkReader::Open(path, &error);
    ASSERT_TRUE(reader.has_value()) << path << ": " << TraceReadErrorName(error);
    EXPECT_EQ(reader->record_count(), records.size());
    auto passes = MakePasses(reader->callsites());
    PipelineOptions options;
    options.jobs = 4;
    PipelineRunner runner(options);
    ASSERT_TRUE(runner.Run(*reader, passes, &error))
        << path << ": " << TraceReadErrorName(error);
    ExpectSameSections(expected, RenderAll(passes), path);
    EXPECT_EQ(runner.stats().records, records.size());
    // v2 has 173-record chunks (parallel); the v1 fallback synthesizes
    // kDefaultChunkRecords-sized chunks, so 5000 records fit in one.
    EXPECT_EQ(runner.stats().jobs, path == v2_path ? 4u : 1u);
  }
}

TEST_F(PipelineFileTest, CursorsServeChunksInAnyOrder) {
  CallsiteRegistry callsites;
  const auto sites = MakeSites(&callsites);
  const auto records = GenerateTrace(11, 1000, sites);
  TraceWriteOptions options;
  options.chunk_records = 64;
  const std::string path = WriteTempTrace(records, callsites, options, "order");
  const auto reader = TraceChunkReader::Open(path);
  ASSERT_TRUE(reader.has_value());
  auto cursor = reader->MakeCursor();
  // Read the last chunk first, then sweep forward: offsets are absolute.
  size_t total = 0;
  const auto last = cursor.Read(reader->chunk_count() - 1);
  ASSERT_TRUE(cursor.ok());
  EXPECT_EQ(last.size(), records.size() % 64 == 0 ? 64 : records.size() % 64);
  for (size_t i = 0; i < reader->chunk_count(); ++i) {
    const auto chunk = cursor.Read(i);
    ASSERT_TRUE(cursor.ok());
    for (const TraceRecord& r : chunk) {
      EXPECT_EQ(r.timestamp, records[total].timestamp);
      EXPECT_EQ(r.timer, records[total].timer);
      ++total;
    }
  }
  EXPECT_EQ(total, records.size());
}

std::vector<uint8_t> SerializedV2(const std::vector<TraceRecord>& records,
                                  const CallsiteRegistry& callsites) {
  TraceWriteOptions options;
  options.chunk_records = 100;
  return SerializeTrace(records, callsites, options);
}

void WriteBytes(const std::string& path, const std::vector<uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

TEST_F(PipelineFileTest, OpenReportsTheRightErrorForEachDamage) {
  CallsiteRegistry callsites;
  const auto sites = MakeSites(&callsites);
  const auto records = GenerateTrace(3, 1000, sites);
  const auto bytes = SerializedV2(records, callsites);
  const std::string path = ::testing::TempDir() + "/tempo_pipeline_damage.trc";
  paths_.push_back(path);

  TraceReadError error = TraceReadError::kIo;
  EXPECT_FALSE(TraceChunkReader::Open("/nonexistent/nope.trc", &error).has_value());
  EXPECT_EQ(error, TraceReadError::kIo);

  auto bad_magic = bytes;
  bad_magic[0] = 'X';
  WriteBytes(path, bad_magic);
  EXPECT_FALSE(TraceChunkReader::Open(path, &error).has_value());
  EXPECT_EQ(error, TraceReadError::kMagic);

  auto bad_version = bytes;
  bad_version[8] = 99;
  WriteBytes(path, bad_version);
  EXPECT_FALSE(TraceChunkReader::Open(path, &error).has_value());
  EXPECT_EQ(error, TraceReadError::kVersion);

  auto truncated = bytes;
  truncated.resize(truncated.size() - 17);
  WriteBytes(path, truncated);
  EXPECT_FALSE(TraceChunkReader::Open(path, &error).has_value());
  EXPECT_EQ(error, TraceReadError::kTruncated);

  auto bad_trailer = bytes;
  bad_trailer[bad_trailer.size() - 8] ^= 0xff;  // index trailer magic
  WriteBytes(path, bad_trailer);
  EXPECT_FALSE(TraceChunkReader::Open(path, &error).has_value());
  EXPECT_EQ(error, TraceReadError::kCorrupt);

  // The undamaged bytes still open, so the damage above is what failed.
  WriteBytes(path, bytes);
  EXPECT_TRUE(TraceChunkReader::Open(path, &error).has_value());
}

TEST_F(PipelineFileTest, DeserializeRejectsCorruptChunkIndex) {
  CallsiteRegistry callsites;
  const auto sites = MakeSites(&callsites);
  const auto records = GenerateTrace(5, 500, sites);
  const auto bytes = SerializedV2(records, callsites);
  ASSERT_TRUE(SweepBytes(bytes).ok());

  // Flip a byte inside the index footer (between the stated index offset
  // and the trailer): the per-chunk offsets no longer match the layout.
  auto corrupt = bytes;
  corrupt[corrupt.size() - 20] ^= 0x01;
  EXPECT_EQ(SweepBytes(corrupt).error, TraceReadError::kCorrupt);
}

TEST(PipelineRoundTripTest, V1AndV2EncodeTheSameTrace) {
  CallsiteRegistry callsites;
  const auto sites = MakeSites(&callsites);
  const auto records = GenerateTrace(13, 2000, sites);

  TraceWriteOptions v1;
  v1.version = kTraceFileVersion;
  const Sweep v1_loaded = SweepBytes(SerializeTrace(records, callsites, v1));
  TraceWriteOptions v2;
  v2.chunk_records = 77;
  const Sweep v2_loaded = SweepBytes(SerializeTrace(records, callsites, v2));
  ASSERT_TRUE(v1_loaded.ok());
  ASSERT_TRUE(v2_loaded.ok());
  ASSERT_EQ(v1_loaded.records.size(), records.size());
  ASSERT_EQ(v2_loaded.records.size(), records.size());
  for (size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(v1_loaded.records[i].timestamp, v2_loaded.records[i].timestamp);
    EXPECT_EQ(v1_loaded.records[i].timer, v2_loaded.records[i].timer);
    EXPECT_EQ(v1_loaded.records[i].timeout, v2_loaded.records[i].timeout);
    EXPECT_EQ(v1_loaded.records[i].expiry, v2_loaded.records[i].expiry);
    EXPECT_EQ(v1_loaded.records[i].callsite, v2_loaded.records[i].callsite);
    EXPECT_EQ(v1_loaded.records[i].pid, v2_loaded.records[i].pid);
    EXPECT_EQ(static_cast<int>(v1_loaded.records[i].op),
              static_cast<int>(v2_loaded.records[i].op));
    EXPECT_EQ(v1_loaded.records[i].flags, v2_loaded.records[i].flags);
  }
  for (CallsiteId id = 0; id < callsites.size(); ++id) {
    EXPECT_EQ(v1_loaded.callsites.Name(id), v2_loaded.callsites.Name(id));
    EXPECT_EQ(v1_loaded.callsites.Parent(id), v2_loaded.callsites.Parent(id));
  }
}

}  // namespace
}  // namespace tempo

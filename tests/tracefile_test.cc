// Tests for trace file serialisation, the damage table and seeded mutation
// suite that hold the cursor sweep and tracestat's pipeline to one answer,
// and the provenance analysis.

#include <gtest/gtest.h>

#include <sys/resource.h>

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iterator>
#include <map>
#include <memory>
#include <optional>
#include <ostream>
#include <random>
#include <string>
#include <tuple>
#include <vector>

#include "src/analysis/classify.h"
#include "src/analysis/histogram.h"
#include "src/analysis/latency.h"
#include "src/analysis/origins.h"
#include "src/analysis/pipeline.h"
#include "src/analysis/provenance.h"
#include "src/analysis/summary.h"
#include "src/trace/chunked.h"
#include "src/trace/file.h"
#include "src/trace/stream_writer.h"
#include "tests/trace_sweep.h"

namespace tempo {
namespace {

std::vector<TraceRecord> MakeTrace(CallsiteRegistry* callsites) {
  const CallsiteId select = callsites->Intern("app/select");
  const CallsiteId tcp = callsites->Intern("net/tcp");
  const CallsiteId rtx = callsites->Intern("net/tcp_retransmit", tcp);
  std::vector<TraceRecord> records;
  for (int i = 0; i < 50; ++i) {
    TraceRecord set;
    set.timestamp = i * kSecond;
    set.timer = static_cast<TimerId>(1 + i % 3);
    set.timeout = 204 * kMillisecond;
    set.expiry = set.timestamp + set.timeout;
    set.callsite = i % 2 == 0 ? select : rtx;
    set.pid = static_cast<Pid>(i % 2);
    set.op = TimerOp::kSet;
    set.flags = i % 2 == 0 ? kFlagUser : uint16_t{0};
    records.push_back(set);
    TraceRecord end = set;
    end.timestamp += 100 * kMillisecond;
    end.op = i % 3 == 0 ? TimerOp::kCancel : TimerOp::kExpire;
    records.push_back(end);
  }
  return records;
}

TEST(TraceFileTest, SerializeDeserializeRoundTrip) {
  CallsiteRegistry callsites;
  const auto records = MakeTrace(&callsites);
  const auto bytes = SerializeTrace(records, callsites);
  const Sweep loaded = SweepBytes(bytes);
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded.records.size(), records.size());
  for (size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(loaded.records[i].timestamp, records[i].timestamp);
    EXPECT_EQ(loaded.records[i].timer, records[i].timer);
    EXPECT_EQ(loaded.records[i].callsite, records[i].callsite);
    EXPECT_EQ(static_cast<int>(loaded.records[i].op),
              static_cast<int>(records[i].op));
  }
  // The call-site table round-trips with identical ids, names and parents.
  ASSERT_EQ(loaded.callsites.size(), callsites.size());
  for (CallsiteId id = 0; id < callsites.size(); ++id) {
    EXPECT_EQ(loaded.callsites.Name(id), callsites.Name(id));
    EXPECT_EQ(loaded.callsites.Parent(id), callsites.Parent(id));
  }
}

TEST(TraceFileTest, AnalysisResultsIdenticalAfterRoundTrip) {
  CallsiteRegistry callsites;
  const auto records = MakeTrace(&callsites);
  const Sweep loaded = SweepBytes(SerializeTrace(records, callsites));
  ASSERT_TRUE(loaded.ok());
  SummaryPass original_summary("t");
  SummaryPass reloaded_summary("t");
  original_summary.Accumulate(records);
  reloaded_summary.Accumulate(loaded.records);
  const TraceSummary original = original_summary.Result();
  const TraceSummary reloaded = reloaded_summary.Result();
  EXPECT_EQ(original.accesses, reloaded.accesses);
  EXPECT_EQ(original.set, reloaded.set);
  EXPECT_EQ(original.expired, reloaded.expired);
  EXPECT_EQ(original.canceled, reloaded.canceled);
  EXPECT_EQ(original.timers, reloaded.timers);
  EXPECT_EQ(original.user_space, reloaded.user_space);
}

TEST(TraceFileTest, BadMagicRejected) {
  CallsiteRegistry callsites;
  auto bytes = SerializeTrace(MakeTrace(&callsites), callsites);
  bytes[0] = 'X';
  EXPECT_FALSE(SweepBytes(bytes).ok());
}

TEST(TraceFileTest, WrongVersionRejected) {
  CallsiteRegistry callsites;
  auto bytes = SerializeTrace(MakeTrace(&callsites), callsites);
  bytes[8] = 99;
  EXPECT_FALSE(SweepBytes(bytes).ok());
}

TEST(TraceFileTest, TruncationRejected) {
  CallsiteRegistry callsites;
  auto bytes = SerializeTrace(MakeTrace(&callsites), callsites);
  bytes.resize(bytes.size() - 17);
  EXPECT_FALSE(SweepBytes(bytes).ok());
}

TEST(TraceFileTest, EmptyTraceRoundTrips) {
  CallsiteRegistry callsites;
  const Sweep loaded = SweepBytes(SerializeTrace({}, callsites));
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(loaded.records.empty());
}

TEST(TraceFileTest, FileRoundTrip) {
  CallsiteRegistry callsites;
  const auto records = MakeTrace(&callsites);
  const std::string path = ::testing::TempDir() + "/tempo_trace_test.trc";
  ASSERT_TRUE(WriteTraceFile(path, records, callsites));
  const Sweep loaded = SweepFile(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.records.size(), records.size());
  std::remove(path.c_str());
}

TEST(TraceFileTest, MissingFileFails) {
  EXPECT_EQ(SweepFile("/nonexistent/dir/nope.trc").error, TraceReadError::kIo);
}

// --- one answer per damaged file ---
//
// Each row damages a small multi-chunk trace in one format, then reads it
// through TraceChunkReader::Open plus a full cursor sweep, the one way
// every tool reads a trace file. Each must give its row's TraceReadError.

// The error a sweep reports, or nullopt when the trace loads.
using ReadOutcome = std::optional<TraceReadError>;

std::string OutcomeName(const ReadOutcome& outcome) {
  return outcome.has_value() ? TraceReadErrorName(*outcome) : "loads";
}

// One undamaged trace and where its parts start.
struct DamageSample {
  std::vector<TraceRecord> records;
  CallsiteRegistry callsites;
  TraceWriteOptions options;
  std::vector<uint8_t> bytes;
  size_t payload = 0;  // first chunk
  size_t index = 0;    // index footer (end of the records for v1)
};

DamageSample MakeDamageSample(uint32_t version, const std::string& path) {
  DamageSample sample;
  sample.records = MakeTrace(&sample.callsites);
  sample.options.version = version;
  sample.options.chunk_records = 32;  // 100 records: three full chunks and a short one
  sample.bytes = SerializeTrace(sample.records, sample.callsites, sample.options);
  WriteBytes(path, sample.bytes);
  const auto reader = TraceChunkReader::Open(path);
  if (reader.has_value() && reader->chunk_count() > 0) {
    const auto& last = reader->chunk(reader->chunk_count() - 1);
    sample.payload = reader->chunk(0).offset;
    sample.index = last.offset + last.stored_bytes;
  }
  return sample;
}

struct DamageRow {
  const char* name;
  std::vector<uint32_t> versions;
  ReadOutcome expected;
  std::function<std::vector<uint8_t>(const DamageSample&)> damage;
};

TEST(TraceDamageTest, EveryEntryPointGivesTheSameError) {
  constexpr uint32_t v1 = kTraceFileVersion;
  constexpr uint32_t v2 = kTraceFileVersionChunked;
  constexpr uint32_t v3 = kTraceFileVersionColumnar;
  using B = std::vector<uint8_t>;
  const std::vector<DamageRow> rows = {
      {"undamaged", {v1, v2, v3}, std::nullopt,
       [](const DamageSample& s) { return s.bytes; }},
      {"bad magic", {v1, v2, v3}, TraceReadError::kMagic,
       [](const DamageSample& s) {
         B b = s.bytes;
         b[0] = 'X';
         return b;
       }},
      {"unknown version", {v1, v2, v3}, TraceReadError::kVersion,
       [](const DamageSample& s) {
         B b = s.bytes;
         b[8] = 99;
         return b;
       }},
      {"cut inside the header", {v1, v2, v3}, TraceReadError::kTruncated,
       [](const DamageSample& s) { return B(s.bytes.begin(), s.bytes.begin() + 14); }},
      {"cut inside a chunk", {v1, v2, v3}, TraceReadError::kTruncated,
       [](const DamageSample& s) {
         return B(s.bytes.begin(), s.bytes.begin() + static_cast<long>(s.payload) + 100);
       }},
      {"cut inside the index footer", {v2, v3}, TraceReadError::kTruncated,
       [](const DamageSample& s) { return B(s.bytes.begin(), s.bytes.end() - 3); }},
      {"bytes after the declared end", {v1, v2, v3}, TraceReadError::kCorrupt,
       [](const DamageSample& s) {
         B b = s.bytes;
         b.insert(b.end(), 5, 0);
         return b;
       }},
      {"flipped index entry", {v2, v3}, TraceReadError::kCorrupt,
       [](const DamageSample& s) {
         B b = s.bytes;
         b[s.index + 4] ^= 0x01;  // low byte of the first chunk's offset
         return b;
       }},
      {"flipped trailer magic", {v2, v3}, TraceReadError::kCorrupt,
       [](const DamageSample& s) {
         B b = s.bytes;
         b[b.size() - 8] ^= 0xff;
         return b;
       }},
      {"op past kUnblock", {v1, v2, v3}, TraceReadError::kCorrupt,
       [](const DamageSample& s) {
         std::vector<TraceRecord> records = s.records;
         records[40].op = static_cast<TimerOp>(static_cast<uint8_t>(TimerOp::kUnblock) + 1);
         return SerializeTrace(records, s.callsites, s.options);
       }},
      {"call-site id outside the table", {v1, v2, v3}, TraceReadError::kCorrupt,
       [](const DamageSample& s) {
         std::vector<TraceRecord> records = s.records;
         records[40].callsite = 0x00ABCDEF;  // the writers do not validate ids
         return SerializeTrace(records, s.callsites, s.options);
       }},
      {"unknown v3 block codec", {v3}, TraceReadError::kCodec,
       [](const DamageSample& s) {
         B b = s.bytes;
         b[s.payload] = 99;  // the first chunk's block codec id
         return b;
       }},
      {"v3 record count beyond any payload", {v3}, TraceReadError::kTruncated,
       [](const DamageSample& s) {
         // 2^32 - 1 records in empty chunks of kMaxChunkRecords, each
         // restated by its index entry: only the count says the file is
         // short, and no loader may size a buffer from it.
         constexpr uint64_t kMany = 0xFFFFFFFF;
         B b;
         PutTraceHeader(s.options.version, s.callsites, kMany, kMaxChunkRecords, &b);
         std::vector<TraceChunkRef> chunks;
         for (uint64_t left = kMany; left > 0; left -= chunks.back().records) {
           TraceChunkRef chunk;
           chunk.offset = b.size();
           chunk.records = static_cast<uint32_t>(std::min<uint64_t>(left, kMaxChunkRecords));
           chunk.stored_bytes = 9;
           b.insert(b.end(), 9, 0);  // block codec none, 0 raw and 0 stored bytes
           chunks.push_back(chunk);
         }
         PutTraceIndex(s.options.version, chunks, b.size(), &b);
         return b;
       }},
      {"chunk capacity above the bound", {v2, v3}, TraceReadError::kCorrupt,
       [](const DamageSample& s) {
         // The sample's records in one chunk under a capacity one past
         // kMaxChunkRecords: a file consistent in all but the bound.
         B b;
         PutTraceHeader(s.options.version, s.callsites, s.records.size(),
                        kMaxChunkRecords + 1, &b);
         V3EncodeScratch scratch;
         const TraceChunkRef chunk =
             EncodeTraceChunk(s.records, s.options, b.size(), &scratch, &b);
         PutTraceIndex(s.options.version, std::span(&chunk, 1), b.size(), &b);
         return b;
       }},
      {"v3 index zone disagrees with its chunk", {v3}, TraceReadError::kCorrupt,
       [](const DamageSample& s) {
         B b = s.bytes;
         b[s.index + 4 + 32] ^= 0x01;  // the first entry's pid digest
         return b;
       }},
  };

  const std::string path = ::testing::TempDir() + "/tempo_damage.trc";
  for (const DamageRow& row : rows) {
    for (const uint32_t version : row.versions) {
      SCOPED_TRACE(std::string(row.name) + ", v" + std::to_string(version));
      const DamageSample sample = MakeDamageSample(version, path);
      ASSERT_GT(sample.index, sample.payload);
      const std::vector<uint8_t> damaged = row.damage(sample);
      WriteBytes(path, damaged);
      EXPECT_EQ(OutcomeName(SweepFile(path).error), OutcomeName(row.expected));
    }
  }
  std::remove(path.c_str());
}

// A v3 cursor checks call-site ids only when it decodes their stripe: a
// projection that skips the stripe reads a damaged id's chunk like any
// other, and asking for the stripe fails it.
TEST(TraceDamageTest, ProjectionChecksCallsitesOnlyWhenItDecodesThem) {
  const std::string path = ::testing::TempDir() + "/tempo_damage_projection.trc";
  DamageSample sample = MakeDamageSample(kTraceFileVersionColumnar, path);
  sample.records[0].callsite = static_cast<CallsiteId>(sample.callsites.size());
  WriteBytes(path, SerializeTrace(sample.records, sample.callsites, sample.options));
  TraceReadError error = TraceReadError::kIo;
  const auto reader = TraceChunkReader::Open(path, &error);
  ASSERT_TRUE(reader.has_value()) << TraceReadErrorName(error);

  auto projected = reader->MakeCursor();
  EXPECT_EQ(projected.Read(0, kFieldTimestamp | kFieldOp).size(), 32u);
  EXPECT_TRUE(projected.ok());
  auto full = reader->MakeCursor();
  EXPECT_TRUE(full.Read(0, kFieldCallsite).empty());
  EXPECT_EQ(full.error(), TraceReadError::kCorrupt);
  std::remove(path.c_str());
}

// A v3 cursor checks the chunk's index zone against the fields it
// decodes: a zone that lies about one field reads under a projection
// without that field, and asking for the field fails the chunk.
TEST(TraceDamageTest, ProjectionChecksZonesOnlyForDecodedFields) {
  const std::string path = ::testing::TempDir() + "/tempo_damage_zone_projection.trc";
  const DamageSample sample = MakeDamageSample(kTraceFileVersionColumnar, path);
  const struct {
    const char* field;
    size_t at;  // byte of the first index entry
    uint16_t decoded;
  } lies[] = {{"min timestamp", 16, kFieldTimestamp},
              {"max timestamp", 24, kFieldTimestamp},
              {"pid digest", 32, kFieldPid},
              {"op mask", 40, kFieldOp}};
  for (const auto& lie : lies) {
    SCOPED_TRACE(lie.field);
    std::vector<uint8_t> bytes = sample.bytes;
    bytes[sample.index + 4 + lie.at] ^= 0x01;
    WriteBytes(path, bytes);
    TraceReadError error = TraceReadError::kIo;
    const auto reader = TraceChunkReader::Open(path, &error);
    ASSERT_TRUE(reader.has_value()) << TraceReadErrorName(error);

    auto projected = reader->MakeCursor();
    EXPECT_EQ(projected.Read(0, kAllTraceFields & ~lie.decoded).size(), 32u);
    EXPECT_TRUE(projected.ok());
    EXPECT_EQ(projected.Read(1).size(), 32u);  // the other chunks' zones hold
    auto checked = reader->MakeCursor();
    EXPECT_TRUE(checked.Read(0, lie.decoded).empty());
    EXPECT_EQ(checked.error(), TraceReadError::kCorrupt);
  }
  std::remove(path.c_str());
}

// --- every writer writes the same bytes ---
//
// SerializeTrace builds a file in memory and WriteTraceFile streams it to
// disk, both encoding chunks on every core and writing them in chunk order;
// TraceStreamWriter buffers the open chunk's records on one thread and
// assembles the file at Close. All three cut chunks alike and encode them
// with EncodeTraceChunk, so for every format, chunk size and trace shape
// they must write the same bytes.

struct WriterFormat {
  const char* name;
  uint32_t version;
  BlockCodecId block_codec;
};

enum class TraceShape { kEmpty, kOneRecord, kMultiChunk, kManyChunks };

const char* ShapeName(TraceShape shape) {
  static const char* const kShapes[] = {"empty", "one", "multi", "many"};
  return kShapes[static_cast<int>(shape)];
}

// gtest prints parameters into the test list; these keep it readable and
// stable across builds.
void PrintTo(const WriterFormat& format, std::ostream* out) { *out << format.name; }
void PrintTo(TraceShape shape, std::ostream* out) { *out << ShapeName(shape); }

using WriterCase = std::tuple<WriterFormat, uint32_t, TraceShape>;

std::string WriterCaseName(const WriterCase& c) {
  const auto& [format, chunk_records, shape] = c;
  return std::string(format.name) + "_chunk" + std::to_string(chunk_records) + "_" +
         ShapeName(shape);
}

// Multi: three full chunks and a tail of half a chunk plus one record.
// Many: 37 full chunks and the same tail, so the bulk writers' ring of
// encoded chunks wraps several times on any core count.
size_t WriterRecordCount(TraceShape shape, uint32_t chunk_records) {
  size_t full = 0;
  switch (shape) {
    case TraceShape::kEmpty:
      return 0;
    case TraceShape::kOneRecord:
      return 1;
    case TraceShape::kMultiChunk:
      full = 3;
      break;
    case TraceShape::kManyChunks:
      full = 37;
      break;
  }
  return full * chunk_records + chunk_records / 2 + 1;
}

std::vector<TraceRecord> WriterTrace(CallsiteRegistry* callsites, size_t count) {
  const CallsiteId tcp = callsites->Intern("net/tcp");
  const CallsiteId sites[] = {callsites->Intern("app/select"), tcp,
                              callsites->Intern("net/tcp_retransmit", tcp)};
  std::mt19937_64 rng(2008);
  std::vector<TraceRecord> records(count);
  SimTime now = 0;
  for (TraceRecord& r : records) {
    now += static_cast<SimTime>(rng() % 3000) * kMicrosecond;
    r.timestamp = now;
    r.timer = 1 + rng() % 64;
    r.timeout = static_cast<SimDuration>(rng() % 8) * 4 * kMillisecond;
    r.expiry = now + r.timeout + static_cast<SimTime>(rng() % 1024);
    r.callsite = sites[rng() % 3];
    r.pid = static_cast<Pid>(rng() % 6) - 1;
    r.tid = r.pid * 7;
    r.op = static_cast<TimerOp>(rng() % 6);
    r.flags = static_cast<uint16_t>(rng());
  }
  return records;
}

std::vector<uint8_t> ReadBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<uint8_t>(std::istreambuf_iterator<char>(in),
                              std::istreambuf_iterator<char>());
}

class TraceWriterTest : public ::testing::TestWithParam<WriterCase> {};

TEST_P(TraceWriterTest, EveryWriterWritesTheSameBytes) {
  const auto& [format, chunk_records, shape] = GetParam();
  TraceWriteOptions options;
  options.version = format.version;
  options.block_codec = format.block_codec;
  options.chunk_records = chunk_records;
  CallsiteRegistry callsites;
  const std::vector<TraceRecord> records =
      WriterTrace(&callsites, WriterRecordCount(shape, chunk_records));
  const std::vector<uint8_t> serialized = SerializeTrace(records, callsites, options);
  // One file per case: ctest runs the cases as parallel processes.
  const std::string path =
      ::testing::TempDir() + "/tempo_writer_" + WriterCaseName(GetParam()) + ".trc";

  ASSERT_TRUE(WriteTraceFile(path, records, callsites, options));
  EXPECT_EQ(ReadBytes(path), serialized);
  if (format.version != kTraceFileVersion) {
    TraceStreamWriter writer(path, &callsites, options);
    for (const TraceRecord& r : records) {
      ASSERT_TRUE(writer.Append(r));
    }
    ASSERT_TRUE(writer.Close());
    EXPECT_EQ(writer.records_written(), records.size());
    EXPECT_EQ(ReadBytes(path), serialized);
    EXPECT_FALSE(std::ifstream(path + ".spill").good());  // no spill file left behind

    // The chunks are the ones asked for: full ones, then a short tail.
    const auto reader = TraceChunkReader::Open(path);
    ASSERT_TRUE(reader.has_value());
    const size_t full = records.size() / chunk_records;
    const size_t tail = records.size() % chunk_records;
    ASSERT_EQ(reader->chunk_count(), full + (tail != 0 ? 1 : 0));
    if (tail != 0) {
      EXPECT_EQ(reader->chunk(full).records, tail);
    }
  }
  const Sweep loaded = SweepFile(path);  // the file holds `serialized`
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.records.size(), records.size());
  std::remove(path.c_str());
}

const auto kWriterFormats =
    ::testing::Values(WriterFormat{"v1", kTraceFileVersion, BlockCodecId::kNone},
                      WriterFormat{"v2", kTraceFileVersionChunked, BlockCodecId::kNone},
                      WriterFormat{"v3", kTraceFileVersionColumnar, BlockCodecId::kNone},
                      WriterFormat{"v3lz", kTraceFileVersionColumnar, BlockCodecId::kTempoLz});

std::string WriterTestName(const ::testing::TestParamInfo<WriterCase>& param_info) {
  return WriterCaseName(param_info.param);
}

INSTANTIATE_TEST_SUITE_P(
    AllWriters, TraceWriterTest,
    ::testing::Combine(kWriterFormats, ::testing::Values(1u, 7u, 4096u, kDefaultChunkRecords),
                       ::testing::Values(TraceShape::kEmpty, TraceShape::kOneRecord,
                                         TraceShape::kMultiChunk)),
    WriterTestName);

// The many-chunk shape leaves out the default chunk size: 37 chunks of
// 64 Ki records would hold about half a gigabyte per case, and the ring
// wraps the same way at any chunk size.
INSTANTIATE_TEST_SUITE_P(ManyChunks, TraceWriterTest,
                         ::testing::Combine(kWriterFormats, ::testing::Values(1u, 7u, 4096u),
                                            ::testing::Values(TraceShape::kManyChunks)),
                         WriterTestName);

// kMaxChunkRecords is the largest chunk either file writer emits and the
// reader takes; one record more is refused before anything is written.
TEST(TraceFileTest, ChunkRecordsBoundIsInclusive) {
  CallsiteRegistry callsites;
  const auto records = MakeTrace(&callsites);
  const std::string path = ::testing::TempDir() + "/tempo_chunk_bound.trc";
  for (const uint32_t version : {kTraceFileVersionChunked, kTraceFileVersionColumnar}) {
    SCOPED_TRACE("v" + std::to_string(version));
    TraceWriteOptions options;
    options.version = version;
    options.chunk_records = kMaxChunkRecords;
    ASSERT_TRUE(WriteTraceFile(path, records, callsites, options));
    EXPECT_TRUE(SweepFile(path).ok());
    {
      TraceStreamWriter writer(path, &callsites, options);
      EXPECT_TRUE(writer.ok());
      EXPECT_TRUE(writer.Close());
    }
    std::remove(path.c_str());

    options.chunk_records = kMaxChunkRecords + 1;
    EXPECT_FALSE(WriteTraceFile(path, records, callsites, options));
    EXPECT_FALSE(std::ifstream(path).good());
    TraceStreamWriter writer(path, &callsites, options);
    EXPECT_FALSE(writer.ok());
    EXPECT_FALSE(writer.Append(records.front()));
    EXPECT_FALSE(writer.Close());
    EXPECT_FALSE(std::ifstream(path).good());
  }
}

// A write that fails part way, here at a file-size limit as on a full
// disk, leaves no half-written trace behind. The limit is set in a child
// process, so the rest of the suite still writes files.
TEST(TraceFileTest, FailedWriteLeavesNoFile) {
  CallsiteRegistry callsites;
  const auto records = MakeTrace(&callsites);
  const std::string path = ::testing::TempDir() + "/tempo_failed_write.trc";
  EXPECT_EXIT(
      {
        std::signal(SIGXFSZ, SIG_IGN);  // a write past the limit fails with EFBIG
        rlimit limit{};
        getrlimit(RLIMIT_FSIZE, &limit);
        limit.rlim_cur = 1024;  // the header fits, the first chunk does not
        setrlimit(RLIMIT_FSIZE, &limit);
        const bool written = WriteTraceFile(path, records, callsites, TraceWriteOptions{});
        std::exit(!written && !std::ifstream(path).good() ? 0 : 1);
      },
      ::testing::ExitedWithCode(0), "");
  std::remove(path.c_str());
}

// The same on a many-chunk trace whose write fails part way through, while
// the writer's threads are still encoding later chunks: it stops handing
// out chunks, joins them, and removes the file, for rows and for columns.
TEST(TraceFileTest, FailedWriteWhileEncodingLeavesNoFile) {
  CallsiteRegistry callsites;
  constexpr uint32_t kChunk = 4096;
  const auto records =
      WriterTrace(&callsites, WriterRecordCount(TraceShape::kManyChunks, kChunk));
  for (const uint32_t version : {kTraceFileVersionChunked, kTraceFileVersionColumnar}) {
    SCOPED_TRACE("v" + std::to_string(version));
    TraceWriteOptions options;
    options.version = version;
    options.chunk_records = kChunk;
    // A fifth of the file fits: several chunks are written first.
    const size_t limit = SerializeTrace(records, callsites, options).size() / 5;
    const std::string path = ::testing::TempDir() + "/tempo_failed_write_many.trc";
    EXPECT_EXIT(
        {
          std::signal(SIGXFSZ, SIG_IGN);
          rlimit rl{};
          getrlimit(RLIMIT_FSIZE, &rl);
          rl.rlim_cur = limit;
          setrlimit(RLIMIT_FSIZE, &rl);
          const bool written = WriteTraceFile(path, records, callsites, options);
          std::exit(!written && !std::ifstream(path).good() ? 0 : 1);
        },
        ::testing::ExitedWithCode(0), "");
    std::remove(path.c_str());
  }
}

// --- seeded mutation suite ---
//
// 300 mutants per format of a small multi-chunk trace (seed 2008). Each
// mutant gets one bit flip, eight bit flips, or a cut at a random offset.
// TraceChunkReader::Open plus a full cursor sweep and tracestat's passes
// at one and four jobs must give the same error or the same report, and
// never crash. A mutant that loads names only call-sites in its table.

std::vector<TraceRecord> MutationTrace(CallsiteRegistry* callsites) {
  const CallsiteId tcp = callsites->Intern("net/tcp");
  const CallsiteId sites[] = {callsites->Intern("app/select"), tcp,
                              callsites->Intern("net/tcp_retransmit", tcp)};
  std::mt19937_64 rng(2008);
  std::vector<TraceRecord> records;
  SimTime now = 0;
  for (int i = 0; i < 400; ++i) {
    now += static_cast<SimTime>(rng() % 4) * kMillisecond;
    TraceRecord r;
    r.timestamp = now;
    r.timer = static_cast<TimerId>(1 + i % 8);
    r.timeout = static_cast<SimDuration>(1 + rng() % 4) * 250 * kMillisecond;
    r.expiry = r.timestamp + r.timeout;
    r.callsite = sites[i % 3];
    r.pid = static_cast<Pid>(i % 5);
    r.tid = static_cast<Tid>(r.pid);
    r.op = static_cast<TimerOp>(rng() % 6);
    r.flags = r.pid != kKernelPid ? kFlagUser : uint16_t{0};
    records.push_back(r);
  }
  return records;
}

class StringSink : public RenderSink {
 public:
  void Section(const std::string& key, const std::string& body) override {
    text += key + ":\n" + body;
  }
  std::string text;
};

// tracestat's passes, with `label` as the summary's.
std::vector<std::unique_ptr<AnalysisPass>> TracestatPasses(const std::string& label,
                                                           const CallsiteRegistry* callsites) {
  std::vector<std::unique_ptr<AnalysisPass>> passes;
  passes.push_back(std::make_unique<SummaryPass>(label));
  passes.push_back(std::make_unique<ClassifyPass>());
  passes.push_back(std::make_unique<HistogramPass>());
  OriginOptions origin_options;
  origin_options.min_percent = 0.5;
  passes.push_back(std::make_unique<OriginsPass>(callsites, origin_options));
  passes.push_back(std::make_unique<ProvenancePass>(callsites));
  passes.push_back(std::make_unique<LatencyPass>(callsites));
  passes.push_back(std::make_unique<BlamePass>(callsites, 100 * kMillisecond,
                                               400 * kMillisecond));
  return passes;
}

std::string Render(const std::vector<std::unique_ptr<AnalysisPass>>& passes) {
  StringSink sink;
  for (const auto& pass : passes) {
    pass->Render(sink);
  }
  return sink.text;
}

// tracestat's report over `path` with `jobs` pipeline workers, or the
// error that stopped it.
std::string RenderTracestat(const std::string& path, size_t jobs) {
  TraceReadError error = TraceReadError::kIo;
  const auto reader = TraceChunkReader::Open(path, &error);
  if (!reader.has_value()) {
    return std::string("error: ") + TraceReadErrorName(error);
  }
  const auto passes = TracestatPasses(path, &reader->callsites());
  PipelineOptions options;
  options.jobs = jobs;
  PipelineRunner runner(options);
  if (!runner.Run(*reader, passes, &error)) {
    return std::string("error: ") + TraceReadErrorName(error);
  }
  return Render(passes);
}

// The same report over a sweep of `path`, cut into chunks as its file is,
// or the error that stopped the sweep.
std::string RenderSweep(const std::string& path, const Sweep& sweep, uint32_t chunk_records) {
  if (!sweep.ok()) {
    return std::string("error: ") + TraceReadErrorName(*sweep.error);
  }
  const auto passes = TracestatPasses(path, &sweep.callsites);
  PipelineOptions options;
  options.jobs = 1;
  PipelineRunner runner(options);
  runner.Run(sweep.records, passes, chunk_records);
  return Render(passes);
}

// `expected_tally` pins the count of each outcome, so a change to what the
// reader accepts shows up here even when every reader still agrees.
void RunMutants(const TraceWriteOptions& options, const std::string& tag,
                const std::string& expected_tally) {
  CallsiteRegistry callsites;
  const std::vector<uint8_t> bytes =
      SerializeTrace(MutationTrace(&callsites), callsites, options);
  const std::string path = ::testing::TempDir() + "/tempo_mutant_" + tag + ".trc";
  std::mt19937_64 rng(2008);
  std::map<std::string, int> tally;
  for (int m = 0; m < 300; ++m) {
    std::vector<uint8_t> mutant = bytes;
    const uint64_t kind = rng() % 3;
    if (kind == 2) {
      mutant.resize(rng() % mutant.size());
    } else {
      for (int flips = kind == 0 ? 1 : 8; flips > 0; --flips) {
        mutant[rng() % mutant.size()] ^= static_cast<uint8_t>(1u << (rng() % 8));
      }
    }
    WriteBytes(path, mutant);
    SCOPED_TRACE(tag + " mutant " + std::to_string(m));

    const Sweep sweep = SweepFile(path);
    ++tally[OutcomeName(sweep.error)];
    for (size_t i = 0; i < sweep.records.size(); ++i) {
      ASSERT_LT(sweep.records[i].callsite, sweep.callsites.size()) << "record " << i;
    }
    const std::string expected = RenderSweep(path, sweep, options.chunk_records);
    EXPECT_EQ(RenderTracestat(path, 1), expected);
    EXPECT_EQ(RenderTracestat(path, 4), expected);
  }
  std::remove(path.c_str());
  std::string summary;
  for (const auto& [outcome, count] : tally) {
    summary += " " + outcome + "=" + std::to_string(count);
  }
  std::printf("%s mutants:%s\n", tag.c_str(), summary.c_str());
  EXPECT_EQ(summary, expected_tally);
  // Both sides of the oracle must be exercised.
  EXPECT_GT(tally["loads"], 0);
  EXPECT_LT(tally["loads"], 300);
}

TEST(TraceMutationTest, V1) {
  TraceWriteOptions options;
  options.version = kTraceFileVersion;
  RunMutants(options, "v1", " corrupt content=79 loads=126 truncated file=95");
}

TEST(TraceMutationTest, V2) {
  TraceWriteOptions options;
  options.chunk_records = 96;  // 400 records: four full chunks and a short one
  RunMutants(options, "v2", " corrupt content=73 loads=132 truncated file=95");
}

TEST(TraceMutationTest, V3) {
  TraceWriteOptions options;
  options.version = kTraceFileVersionColumnar;
  options.chunk_records = 96;
  RunMutants(options, "v3",
             " corrupt content=130 loads=41 not a tempo trace (bad magic)=1 truncated file=125"
             " unknown chunk codec (file from a newer writer?)=3");
}

TEST(TraceMutationTest, V3TempoLz) {
  TraceWriteOptions options;
  options.version = kTraceFileVersionColumnar;
  options.chunk_records = 96;
  options.block_codec = BlockCodecId::kTempoLz;
  // The mutants must hit compressed chunks, not the uncompressed fallback.
  CallsiteRegistry callsites;
  const auto records = MutationTrace(&callsites);
  TraceWriteOptions plain = options;
  plain.block_codec = BlockCodecId::kNone;
  ASSERT_LT(SerializeTrace(records, callsites, options).size(),
            SerializeTrace(records, callsites, plain).size());
  RunMutants(options, "v3lz",
             " corrupt content=145 loads=32 not a tempo trace (bad magic)=5 truncated file=117"
             " unknown chunk codec (file from a newer writer?)=1");
}

// --- provenance ---

TEST(ProvenanceTest, AggregatesAlongParentChains) {
  CallsiteRegistry callsites;
  const CallsiteId ip = callsites.Intern("net/ip");
  const CallsiteId tcp = callsites.Intern("net/tcp", ip);
  const CallsiteId rtx = callsites.Intern("net/tcp_retransmit", tcp);
  const CallsiteId app = callsites.Intern("app/standalone");

  std::vector<TraceRecord> records;
  auto add = [&](CallsiteId site, int count) {
    for (int i = 0; i < count; ++i) {
      TraceRecord r;
      r.timestamp = i;
      r.timer = site * 100ull;
      r.callsite = site;
      r.op = TimerOp::kSet;
      records.push_back(r);
    }
  };
  add(rtx, 10);
  add(tcp, 5);
  add(app, 3);

  ProvenancePass pass(&callsites);
  pass.Accumulate(records);
  const auto forest = pass.Result();
  ASSERT_EQ(forest.size(), 2u);
  // net/ip subsumes everything below it: 15 ops.
  EXPECT_EQ(forest[0].name, "net/ip");
  EXPECT_EQ(forest[0].direct_ops, 0u);
  EXPECT_EQ(forest[0].subtree_ops, 15u);
  ASSERT_EQ(forest[0].children.size(), 1u);
  EXPECT_EQ(forest[0].children[0].name, "net/tcp");
  EXPECT_EQ(forest[0].children[0].direct_ops, 5u);
  EXPECT_EQ(forest[0].children[0].subtree_ops, 15u);
  EXPECT_EQ(forest[1].name, "app/standalone");
  EXPECT_EQ(forest[1].subtree_ops, 3u);
}

TEST(ProvenanceTest, BlameWindowMeasuresHeldTime) {
  CallsiteRegistry callsites;
  const CallsiteId slow = callsites.Intern("nfs/backoff");
  const CallsiteId fast = callsites.Intern("tcp/rtx");
  std::vector<TraceRecord> records;
  // slow: pending from 0 to 60 s; fast: pending 10-10.2 s.
  TraceRecord set;
  set.timer = 1;
  set.callsite = slow;
  set.op = TimerOp::kSet;
  set.timeout = 64 * kSecond;
  set.expiry = 64 * kSecond;
  records.push_back(set);
  TraceRecord fset;
  fset.timestamp = 10 * kSecond;
  fset.timer = 2;
  fset.callsite = fast;
  fset.op = TimerOp::kSet;
  fset.timeout = 200 * kMillisecond;
  fset.expiry = fset.timestamp + fset.timeout;
  records.push_back(fset);
  TraceRecord fend = fset;
  fend.timestamp += 200 * kMillisecond;
  fend.op = TimerOp::kExpire;
  records.push_back(fend);
  TraceRecord send;
  send.timestamp = 60 * kSecond;
  send.timer = 1;
  send.op = TimerOp::kCancel;
  records.push_back(send);

  BlamePass pass(&callsites, 5 * kSecond, 30 * kSecond);
  pass.Accumulate(records);
  const auto blame = pass.Result();
  ASSERT_EQ(blame.size(), 2u);
  EXPECT_EQ(blame[0].name, "nfs/backoff");  // sorted by held time
  EXPECT_EQ(blame[0].held, 25 * kSecond);   // clipped to the window
  EXPECT_EQ(blame[1].name, "tcp/rtx");
  EXPECT_EQ(blame[1].held, 200 * kMillisecond);
}

TEST(ProvenanceTest, BlameIncludesOpenEpisodes) {
  CallsiteRegistry callsites;
  const CallsiteId site = callsites.Intern("hung/op");
  TraceRecord set;
  set.timer = 1;
  set.callsite = site;
  set.op = TimerOp::kSet;
  set.timeout = kHour;
  set.expiry = kHour;
  const std::vector<TraceRecord> records = {set};
  BlamePass pass(&callsites, 0, 10 * kSecond);
  pass.Accumulate(records);
  const auto blame = pass.Result();
  ASSERT_EQ(blame.size(), 1u);
  EXPECT_EQ(blame[0].held, 10 * kSecond);  // still pending at window end
}

TEST(ProvenanceTest, RenderersIncludeNamesAndCounts) {
  CallsiteRegistry callsites;
  const CallsiteId site = callsites.Intern("subsystem/x");
  TraceRecord r;
  r.timer = 1;
  r.callsite = site;
  r.op = TimerOp::kSet;
  r.timeout = kSecond;
  r.expiry = kSecond;
  const std::vector<TraceRecord> records = {r};
  ProvenancePass provenance(&callsites);
  BlamePass blame(&callsites, 0, kSecond);
  provenance.Accumulate(records);
  blame.Accumulate(records);
  const std::string tree = RenderProvenance(provenance.Result());
  EXPECT_NE(tree.find("subsystem/x"), std::string::npos);
  const std::string report = RenderBlame(blame.Result(), 0, kSecond);
  EXPECT_NE(report.find("subsystem/x"), std::string::npos);
}

}  // namespace
}  // namespace tempo

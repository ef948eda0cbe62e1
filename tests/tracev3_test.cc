// Tests for the v3 columnar trace format: stripe codecs, the TempoLz
// block codec, chunk and file round-trips, zone maps, the streaming
// writer, and predicate pushdown through the pipeline.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <random>
#include <sstream>
#include <unordered_map>

#include "src/analysis/pipeline.h"
#include "src/analysis/query.h"
#include "src/trace/chunked.h"
#include "src/trace/file.h"
#include "src/trace/predicate.h"
#include "src/trace/stream_writer.h"
#include "src/trace/wire.h"
#include "tests/trace_sweep.h"

namespace tempo {
namespace {

constexpr StripeCodec kAllStripeCodecs[] = {
    StripeCodec::kRaw, StripeCodec::kVarint, StripeCodec::kDeltaVarint,
    StripeCodec::kDict, StripeCodec::kRle};

std::vector<uint64_t> DecodeAll(StripeCodec codec, const std::vector<uint8_t>& bytes,
                                size_t count, ChunkParse* parse = nullptr) {
  std::vector<uint64_t> out;
  const ChunkParse result = DecodeStripe(codec, bytes.data(), bytes.size(), count, &out);
  if (parse != nullptr) {
    *parse = result;
  }
  return out;
}

// A trace whose values survive the wire projections (expiry below 2^50
// and 1024-aligned via timeouts in whole ms, pid/tid within int16), so
// decoded records compare equal field-by-field across v1/v2/v3.
std::vector<TraceRecord> MakeTrace(CallsiteRegistry* callsites, size_t n) {
  const CallsiteId select = callsites->Intern("app/select");
  const CallsiteId tcp = callsites->Intern("net/tcp");
  const CallsiteId rtx = callsites->Intern("net/tcp_retransmit", tcp);
  std::mt19937_64 rng(2008);
  std::vector<TraceRecord> records;
  records.reserve(n);
  SimTime now = 0;
  for (size_t i = 0; i < n; ++i) {
    now += static_cast<SimTime>(rng() % (5 * kMillisecond));
    TraceRecord r;
    r.timestamp = now;
    r.timer = static_cast<TimerId>(1 + rng() % 64);
    r.timeout = static_cast<SimDuration>(1 + rng() % 500) * kMillisecond;
    r.expiry = ((r.timestamp + r.timeout) >> 10) << 10;
    r.callsite = rng() % 3 == 0 ? select : rtx;
    r.pid = static_cast<Pid>(rng() % 40);
    r.tid = static_cast<Tid>(r.pid * 2);
    r.op = static_cast<TimerOp>(rng() % 6);
    r.flags = rng() % 2 == 0 ? kFlagUser : uint16_t{0};
    records.push_back(r);
  }
  return records;
}

bool SameRecord(const TraceRecord& a, const TraceRecord& b) {
  return a.timestamp == b.timestamp && a.timer == b.timer && a.timeout == b.timeout &&
         a.expiry == b.expiry && a.callsite == b.callsite && a.stack == b.stack &&
         a.pid == b.pid && a.tid == b.tid && a.op == b.op && a.flags == b.flags;
}

TEST(TraceV3Test, VarintRoundTripExtremes) {
  const uint64_t cases[] = {0,    1,    127,        128,
                            300,  1u << 21,         (1ull << 35) + 7,
                            ~0ull >> 1,             ~0ull,
                            0x8000000000000000ull};
  for (const uint64_t v : cases) {
    std::vector<uint8_t> bytes;
    wire::PutVarint(v, &bytes);
    EXPECT_LE(bytes.size(), 10u);
    uint64_t back = 0;
    const uint8_t* end = wire::GetVarint(bytes.data(), bytes.data() + bytes.size(), &back);
    ASSERT_NE(end, nullptr) << v;
    EXPECT_EQ(end, bytes.data() + bytes.size());
    EXPECT_EQ(back, v);
  }
  // Truncated varint: no terminating byte in range.
  std::vector<uint8_t> bytes;
  wire::PutVarint(~0ull, &bytes);
  uint64_t back = 0;
  EXPECT_EQ(wire::GetVarint(bytes.data(), bytes.data() + bytes.size() - 1, &back), nullptr);
}

TEST(TraceV3Test, ZigZagFoldsSignedOrder) {
  const uint64_t cases[] = {0, 1, static_cast<uint64_t>(-1), 2,
                            static_cast<uint64_t>(-2),       ~0ull >> 1,
                            0x8000000000000000ull,           42};
  for (const uint64_t v : cases) {
    EXPECT_EQ(wire::UnZigZag(wire::ZigZag(v)), v);
  }
  EXPECT_EQ(wire::ZigZag(0), 0u);
  EXPECT_EQ(wire::ZigZag(static_cast<uint64_t>(-1)), 1u);
  EXPECT_EQ(wire::ZigZag(1), 2u);
}

// A random column (fewer than 200 values) of one of five shapes.
std::vector<uint64_t> ShapedColumn(std::mt19937_64* rng, int shape) {
  const size_t n = (*rng)() % 200;
  std::vector<uint64_t> values(n);
  uint64_t acc = (*rng)();
  for (size_t i = 0; i < n; ++i) {
    switch (shape) {
      case 0:  // arbitrary u64, including extremes
        values[i] = (*rng)();
        break;
      case 1:  // small dictionary-friendly set
        values[i] = (*rng)() % 7;
        break;
      case 2:  // long runs
        values[i] = (i / 17) % 3;
        break;
      case 3:  // non-monotonic clock-like walk (deltas both signs)
        acc += (*rng)() % 1000;
        acc -= (*rng)() % 1000;
        values[i] = acc;
        break;
      default:  // extremes mixed with zero
        values[i] = i % 2 == 0 ? ~0ull : 0;
    }
  }
  return values;
}

TEST(TraceV3Test, StripeCodecsRoundTripRandomised) {
  std::mt19937_64 rng(7);
  for (int round = 0; round < 40; ++round) {
    const int shape = round % 5;
    const std::vector<uint64_t> values = ShapedColumn(&rng, shape);
    const size_t n = values.size();
    for (const StripeCodec codec : kAllStripeCodecs) {
      std::vector<uint8_t> bytes;
      EncodeStripe(std::span<const uint64_t>(values), codec, &bytes);
      ChunkParse parse = ChunkParse::kCorrupt;
      const std::vector<uint64_t> back = DecodeAll(codec, bytes, n, &parse);
      ASSERT_EQ(parse, ChunkParse::kOk)
          << "codec " << static_cast<int>(codec) << " shape " << shape;
      EXPECT_EQ(back, values);
    }
    std::vector<uint8_t> best_bytes;
    V3EncodeScratch scratch;
    const StripeCodec best = EncodeStripeBest(std::span<const uint64_t>(values), &scratch,
                                              &best_bytes);
    ChunkParse parse = ChunkParse::kCorrupt;
    const std::vector<uint64_t> back = DecodeAll(best, best_bytes, n, &parse);
    ASSERT_EQ(parse, ChunkParse::kOk);
    EXPECT_EQ(back, values);
    // Best is never larger than raw.
    EXPECT_LE(best_bytes.size(), n * 8);
  }
}

// The stripe encoders as they were written before the v3 writer learned
// to size codecs without encoding: push_back varints and a hash-map
// dictionary. They are the byte-for-byte reference for EncodeStripe.
std::vector<uint8_t> ReferenceEncode(const std::vector<uint64_t>& values, StripeCodec codec) {
  std::vector<uint8_t> out;
  switch (codec) {
    case StripeCodec::kRaw:
      for (const uint64_t v : values) {
        wire::Put64(v, &out);
      }
      break;
    case StripeCodec::kVarint:
      for (const uint64_t v : values) {
        wire::PutVarint(v, &out);
      }
      break;
    case StripeCodec::kDeltaVarint: {
      uint64_t prev = 0;
      for (const uint64_t v : values) {
        wire::PutVarint(wire::ZigZag(v - prev), &out);
        prev = v;
      }
      break;
    }
    case StripeCodec::kDict: {
      std::unordered_map<uint64_t, uint64_t> ids;
      std::vector<uint64_t> dict;
      std::vector<uint64_t> indexes;
      for (const uint64_t v : values) {
        auto [it, inserted] = ids.emplace(v, dict.size());
        if (inserted) {
          dict.push_back(v);
        }
        indexes.push_back(it->second);
      }
      wire::PutVarint(dict.size(), &out);
      for (const uint64_t v : dict) {
        wire::PutVarint(v, &out);
      }
      for (const uint64_t i : indexes) {
        wire::PutVarint(i, &out);
      }
      break;
    }
    case StripeCodec::kRle:
      for (size_t i = 0; i < values.size();) {
        size_t run = 1;
        while (i + run < values.size() && values[i + run] == values[i]) {
          ++run;
        }
        wire::PutVarint(values[i], &out);
        wire::PutVarint(run, &out);
        i += run;
      }
      break;
  }
  return out;
}

// The trial-encode selection loop the writer used to run on every column:
// encode with all five codecs and keep the first smallest, so ties go to
// the lower codec id.
StripeCodec TrialEncodeBest(const std::vector<uint64_t>& values) {
  StripeCodec best = StripeCodec::kRaw;
  size_t best_size = 0;
  for (const StripeCodec codec : kAllStripeCodecs) {
    const size_t size = ReferenceEncode(values, codec).size();
    if (codec == StripeCodec::kRaw || size < best_size) {
      best = codec;
      best_size = size;
    }
  }
  return best;
}

// Checks one column against the references: every codec's computed size
// and bytes, and the chosen codec and its bytes. `scratch` is shared
// across calls, as a writer shares it across columns and chunks.
void ExpectSizedLikeTrialEncode(const std::vector<uint64_t>& values,
                                V3EncodeScratch* scratch) {
  const std::span<const uint64_t> column(values);
  for (const StripeCodec codec : kAllStripeCodecs) {
    const std::vector<uint8_t> reference = ReferenceEncode(values, codec);
    std::vector<uint8_t> bytes;
    EncodeStripe(column, codec, &bytes);
    EXPECT_EQ(bytes, reference) << "codec " << static_cast<int>(codec) << " n "
                                << values.size();
    EXPECT_EQ(StripeSize(column, codec, scratch), bytes.size())
        << "codec " << static_cast<int>(codec) << " n " << values.size();
  }
  const StripeCodec expected = TrialEncodeBest(values);
  std::vector<uint8_t> best_bytes = {0xee};  // appended to, never overwritten
  EXPECT_EQ(EncodeStripeBest(column, scratch, &best_bytes), expected)
      << "n " << values.size();
  std::vector<uint8_t> reference = {0xee};
  const std::vector<uint8_t> winner = ReferenceEncode(values, expected);
  reference.insert(reference.end(), winner.begin(), winner.end());
  EXPECT_EQ(best_bytes, reference) << "n " << values.size();
}

TEST(TraceV3Test, StripeSizesAndChoiceMatchTrialEncoding) {
  V3EncodeScratch scratch;
  std::mt19937_64 rng(7);
  for (int round = 0; round < 200; ++round) {
    ExpectSizedLikeTrialEncode(ShapedColumn(&rng, round % 5), &scratch);
  }

  // Every column of n = 0..3 over an alphabet of varint-width edges:
  // short columns tie constantly, so each tie-break is exercised.
  const uint64_t alphabet[] = {0, 1, 127, 128, 1ull << 62, ~0ull};
  std::vector<uint64_t> column;
  ExpectSizedLikeTrialEncode(column, &scratch);
  for (const uint64_t a : alphabet) {
    ExpectSizedLikeTrialEncode({a}, &scratch);
    for (const uint64_t b : alphabet) {
      ExpectSizedLikeTrialEncode({a, b}, &scratch);
      for (const uint64_t c : alphabet) {
        ExpectSizedLikeTrialEncode({a, b, c}, &scratch);
      }
    }
  }

  // All values equal, and two alternating values.
  ExpectSizedLikeTrialEncode(std::vector<uint64_t>(100, 5), &scratch);
  ExpectSizedLikeTrialEncode(std::vector<uint64_t>(100, ~0ull), &scratch);
  column.clear();
  for (int i = 0; i < 100; ++i) {
    column.push_back(i % 2 == 0 ? 1 : 2);
  }
  ExpectSizedLikeTrialEncode(column, &scratch);

  // Runs on both sides of each length where the RLE length varint grows.
  column.clear();
  const size_t run_lengths[] = {1, 127, 128, 129, 16383, 16384, 16385, 2};
  for (size_t r = 0; r < std::size(run_lengths); ++r) {
    column.insert(column.end(), run_lengths[r], r % 2 == 0 ? 3 : 1ull << 40);
  }
  ExpectSizedLikeTrialEncode(column, &scratch);

  // Dictionary and RLE tie: 19 alternating runs of 9 over two 9-byte
  // values cost 19 * (9 + 1) = 190 bytes as RLE and 1 + 9 + 9 + 171 = 190
  // as a dictionary; every other codec is larger, so the dictionary (the
  // lower id) must win.
  const uint64_t big = 1ull << 62;
  column.clear();
  for (int run = 0; run < 19; ++run) {
    column.insert(column.end(), 9, run % 2 == 0 ? big : big + 12345);
  }
  ASSERT_EQ(StripeSize(column, StripeCodec::kDict, &scratch), 190u);
  ASSERT_EQ(StripeSize(column, StripeCodec::kRle, &scratch), 190u);
  ExpectSizedLikeTrialEncode(column, &scratch);
  std::vector<uint8_t> bytes;
  EXPECT_EQ(EncodeStripeBest(column, &scratch, &bytes), StripeCodec::kDict);

  // The dictionary table's generation counter wraps. Every slot must read
  // as empty again, including never-used ones, which hold value 0.
  V3EncodeScratch wrapping;
  column.clear();
  for (int i = 0; i < 40; ++i) {
    column.push_back(i % 2 == 0 ? 3 : 9);
  }
  ExpectSizedLikeTrialEncode(column, &wrapping);
  wrapping.generation = ~uint32_t{0};
  column.clear();
  for (int i = 0; i < 40; ++i) {
    column.push_back(i % 2 == 0 ? 1ull << 62 : 0);
  }
  ExpectSizedLikeTrialEncode(column, &wrapping);
}

TEST(TraceV3Test, StripeSingleValueAndEmpty) {
  for (const StripeCodec codec : kAllStripeCodecs) {
    for (const uint64_t v : {uint64_t{0}, uint64_t{1}, ~uint64_t{0}}) {
      std::vector<uint8_t> bytes;
      const std::vector<uint64_t> values = {v};
      EncodeStripe(std::span<const uint64_t>(values), codec, &bytes);
      ChunkParse parse = ChunkParse::kCorrupt;
      EXPECT_EQ(DecodeAll(codec, bytes, 1, &parse), values);
      EXPECT_EQ(parse, ChunkParse::kOk);
    }
    std::vector<uint8_t> bytes;
    EncodeStripe(std::span<const uint64_t>(), codec, &bytes);
    ChunkParse parse = ChunkParse::kCorrupt;
    EXPECT_TRUE(DecodeAll(codec, bytes, 0, &parse).empty());
    EXPECT_EQ(parse, ChunkParse::kOk);
  }
}

TEST(TraceV3Test, StripeTruncationAndGarbageDetected) {
  std::mt19937_64 rng(11);
  std::vector<uint64_t> values(50);
  for (uint64_t& v : values) {
    v = rng();
  }
  for (const StripeCodec codec : kAllStripeCodecs) {
    std::vector<uint8_t> bytes;
    EncodeStripe(std::span<const uint64_t>(values), codec, &bytes);
    // Truncation anywhere must be reported as truncated or corrupt, never
    // accepted.
    std::vector<uint8_t> cut(bytes.begin(), bytes.end() - 1);
    std::vector<uint64_t> out;
    EXPECT_NE(DecodeStripe(codec, cut.data(), cut.size(), values.size(), &out),
              ChunkParse::kOk);
    // Trailing garbage: the stripe must consume its size exactly.
    std::vector<uint8_t> padded = bytes;
    padded.push_back(0);
    out.clear();
    EXPECT_EQ(DecodeStripe(codec, padded.data(), padded.size(), values.size(), &out),
              ChunkParse::kCorrupt);
  }
}

TEST(TraceV3Test, DictAndRleRejectInconsistentContent) {
  // Hand-built dict stripe: two entries, then an index out of range.
  std::vector<uint8_t> dict;
  wire::PutVarint(2, &dict);   // dictionary size
  wire::PutVarint(10, &dict);  // dict[0]
  wire::PutVarint(20, &dict);  // dict[1]
  wire::PutVarint(5, &dict);   // index 5 -> out of range
  wire::PutVarint(0, &dict);
  std::vector<uint64_t> out;
  EXPECT_EQ(DecodeStripe(StripeCodec::kDict, dict.data(), dict.size(), 2, &out),
            ChunkParse::kCorrupt);

  // RLE whose runs overshoot the record count.
  std::vector<uint8_t> rle;
  wire::PutVarint(9, &rle);  // value
  wire::PutVarint(4, &rle);  // run of 4 > count of 2
  out.clear();
  EXPECT_EQ(DecodeStripe(StripeCodec::kRle, rle.data(), rle.size(), 2, &out),
            ChunkParse::kCorrupt);

  // RLE with an explicit zero-length run.
  std::vector<uint8_t> zero;
  wire::PutVarint(9, &zero);
  wire::PutVarint(0, &zero);
  out.clear();
  EXPECT_EQ(DecodeStripe(StripeCodec::kRle, zero.data(), zero.size(), 2, &out),
            ChunkParse::kCorrupt);
}

TEST(TraceV3Test, TempoLzRoundTripsBuffers) {
  const BlockCodec* lz = GetBlockCodec(BlockCodecId::kTempoLz);
  ASSERT_NE(lz, nullptr);
  std::mt19937_64 rng(13);
  for (const size_t size : {size_t{0}, size_t{1}, size_t{4}, size_t{100},
                            size_t{65535}, size_t{70000}, size_t{200000}}) {
    for (const int shape : {0, 1, 2}) {
      std::vector<uint8_t> raw(size);
      for (size_t i = 0; i < size; ++i) {
        switch (shape) {
          case 0:  // highly compressible
            raw[i] = static_cast<uint8_t>(i / 64 % 4);
            break;
          case 1:  // periodic (long-distance matches)
            raw[i] = static_cast<uint8_t>(i % 251);
            break;
          default:  // incompressible
            raw[i] = static_cast<uint8_t>(rng());
        }
      }
      std::vector<uint8_t> packed;
      lz->Compress(raw.data(), raw.size(), &packed);
      std::vector<uint8_t> back(raw.size());
      ASSERT_TRUE(lz->Decompress(packed.data(), packed.size(), back.data(), back.size()))
          << "size " << size << " shape " << shape;
      EXPECT_EQ(back, raw);
      if (shape == 0 && size >= 100) {
        EXPECT_LT(packed.size(), raw.size());
      }
    }
  }
}

TEST(TraceV3Test, TempoLzRejectsCorruptStreams) {
  const BlockCodec* lz = GetBlockCodec(BlockCodecId::kTempoLz);
  ASSERT_NE(lz, nullptr);
  std::vector<uint8_t> raw(4096);
  for (size_t i = 0; i < raw.size(); ++i) {
    raw[i] = static_cast<uint8_t>(i / 16);
  }
  std::vector<uint8_t> packed;
  lz->Compress(raw.data(), raw.size(), &packed);
  std::vector<uint8_t> out(raw.size());
  // Wrong declared size (too large and too small).
  EXPECT_FALSE(lz->Decompress(packed.data(), packed.size(), out.data(), out.size() - 1));
  std::vector<uint8_t> big(raw.size() + 1);
  EXPECT_FALSE(lz->Decompress(packed.data(), packed.size(), big.data(), big.size()));
  // Truncated stream.
  EXPECT_FALSE(lz->Decompress(packed.data(), packed.size() / 2, out.data(), out.size()));
  // An offset of zero is never valid.
  std::vector<uint8_t> zero_offset = {0x04, 'a', 'b', 'c', 'd', 0x00, 0x00};
  EXPECT_FALSE(lz->Decompress(zero_offset.data(), zero_offset.size(), out.data(), 8));
}

TEST(TraceV3Test, UnknownBlockCodecIsNull) {
  EXPECT_EQ(GetBlockCodec(static_cast<BlockCodecId>(200)), nullptr);
  EXPECT_EQ(GetBlockCodec(BlockCodecId::kNone), nullptr);
}

TEST(TraceV3Test, ChunkRoundTripAndZone) {
  CallsiteRegistry callsites;
  const auto records = MakeTrace(&callsites, 500);
  for (const BlockCodecId codec : {BlockCodecId::kNone, BlockCodecId::kTempoLz}) {
    std::vector<uint8_t> bytes;
    ChunkZone zone;
    V3EncodeScratch encode_scratch;
    EncodeV3Chunk(std::span<const TraceRecord>(records), codec, &encode_scratch, &bytes,
                  &zone);
    ASSERT_TRUE(zone.valid);
    EXPECT_EQ(zone.min_timestamp, records.front().timestamp);
    EXPECT_EQ(zone.max_timestamp, records.back().timestamp);
    uint8_t expected_ops = 0;
    for (const TraceRecord& r : records) {
      EXPECT_NE(zone.pid_digest & PidDigestBit(r.pid), 0u);
      expected_ops |= static_cast<uint8_t>(1u << static_cast<uint8_t>(r.op));
    }
    EXPECT_EQ(zone.op_mask, expected_ops);

    V3DecodeScratch scratch;
    std::vector<TraceRecord> back;
    ASSERT_EQ(DecodeV3Chunk(bytes.data(), bytes.size(),
                            static_cast<uint32_t>(records.size()), &scratch, &back),
              ChunkParse::kOk);
    ASSERT_EQ(back.size(), records.size());
    for (size_t i = 0; i < records.size(); ++i) {
      EXPECT_TRUE(SameRecord(back[i], records[i])) << i;
    }
  }
}

TEST(TraceV3Test, ChunkProjectionDecodesOnlyRequestedFields) {
  CallsiteRegistry callsites;
  const auto records = MakeTrace(&callsites, 400);
  const TraceRecord defaults;
  for (const BlockCodecId codec : {BlockCodecId::kNone, BlockCodecId::kTempoLz}) {
    std::vector<uint8_t> bytes;
    ChunkZone zone;
    V3EncodeScratch encode_scratch;
    EncodeV3Chunk(std::span<const TraceRecord>(records), codec, &encode_scratch, &bytes,
                  &zone);
    V3DecodeScratch scratch;
    // Each field alone: the projected field round-trips, every other
    // field holds the TraceRecord default.
    for (int f = 0; f < 10; ++f) {
      const uint16_t mask = static_cast<uint16_t>(1u << f);
      std::vector<TraceRecord> back;
      ASSERT_EQ(DecodeV3Chunk(bytes.data(), bytes.size(),
                              static_cast<uint32_t>(records.size()), &scratch, &back,
                              mask),
                ChunkParse::kOk)
          << f;
      ASSERT_EQ(back.size(), records.size());
      for (size_t i = 0; i < records.size(); ++i) {
        const TraceRecord& want = records[i];
        const TraceRecord& got = back[i];
        EXPECT_EQ(got.timestamp, mask & kFieldTimestamp ? want.timestamp
                                                        : defaults.timestamp);
        EXPECT_EQ(got.timer, mask & kFieldTimer ? want.timer : defaults.timer);
        EXPECT_EQ(got.timeout, mask & kFieldTimeout ? want.timeout : defaults.timeout);
        EXPECT_EQ(got.expiry, mask & kFieldExpiry ? want.expiry : defaults.expiry);
        EXPECT_EQ(got.callsite,
                  mask & kFieldCallsite ? want.callsite : defaults.callsite);
        EXPECT_EQ(got.stack, mask & kFieldStack ? want.stack : defaults.stack);
        EXPECT_EQ(got.pid, mask & kFieldPid ? want.pid : defaults.pid);
        EXPECT_EQ(got.tid, mask & kFieldTid ? want.tid : defaults.tid);
        EXPECT_EQ(got.op, mask & kFieldOp ? want.op : defaults.op);
        EXPECT_EQ(got.flags, mask & kFieldFlags ? want.flags : defaults.flags);
      }
    }
    // A multi-field mask matches a full decode on exactly those fields.
    const uint16_t mask = kFieldTimestamp | kFieldTimeout | kFieldPid | kFieldOp;
    std::vector<TraceRecord> back;
    ASSERT_EQ(DecodeV3Chunk(bytes.data(), bytes.size(),
                            static_cast<uint32_t>(records.size()), &scratch, &back,
                            mask),
              ChunkParse::kOk);
    for (size_t i = 0; i < records.size(); ++i) {
      EXPECT_EQ(back[i].timestamp, records[i].timestamp);
      EXPECT_EQ(back[i].timeout, records[i].timeout);
      EXPECT_EQ(back[i].pid, records[i].pid);
      EXPECT_EQ(back[i].op, records[i].op);
      EXPECT_EQ(back[i].timer, defaults.timer);
      EXPECT_EQ(back[i].callsite, defaults.callsite);
    }
  }
}

TEST(TraceV3Test, ChunkProjectionStillChecksSkippedStripeHeaders) {
  CallsiteRegistry callsites;
  const auto records = MakeTrace(&callsites, 64);
  std::vector<uint8_t> bytes;
  ChunkZone zone;
  V3EncodeScratch encode_scratch;
  EncodeV3Chunk(std::span<const TraceRecord>(records), BlockCodecId::kNone, &encode_scratch,
                &bytes, &zone);
  V3DecodeScratch scratch;
  std::vector<TraceRecord> back;
  // Stripe 0 (timestamp) starts right after the 9-byte chunk header. An
  // unknown codec id there must surface as kCodec even when the mask
  // skips the stripe: a file this build cannot read stays an error, it is
  // never silently projected around.
  std::vector<uint8_t> bad_codec = bytes;
  bad_codec[9] = 250;
  EXPECT_EQ(DecodeV3Chunk(bad_codec.data(), bad_codec.size(), 64, &scratch, &back,
                          kFieldOp),
            ChunkParse::kCodec);
  // An impossible stripe length is caught by the bounds walk too.
  std::vector<uint8_t> bad_len = bytes;
  bad_len[10] = 0xff;
  bad_len[11] = 0xff;
  bad_len[12] = 0xff;
  bad_len[13] = 0xff;
  back.clear();
  EXPECT_EQ(DecodeV3Chunk(bad_len.data(), bad_len.size(), 64, &scratch, &back,
                          kFieldOp),
            ChunkParse::kTruncated);
}

TEST(TraceV3Test, CursorProjectionMatchesFullRead) {
  CallsiteRegistry callsites;
  const auto records = MakeTrace(&callsites, 900);
  const TraceRecord defaults;
  TraceWriteOptions v3;
  v3.version = kTraceFileVersionColumnar;
  v3.chunk_records = 256;
  const std::string path = ::testing::TempDir() + "/tempo_v3_projection.trc";
  ASSERT_TRUE(WriteTraceFile(path, records, callsites, v3));

  TraceReadError error = TraceReadError::kIo;
  auto reader = TraceChunkReader::Open(path, &error);
  ASSERT_TRUE(reader.has_value()) << TraceReadErrorName(error);
  auto cursor = reader->MakeCursor();
  size_t next = 0;
  for (size_t c = 0; c < reader->chunk_count(); ++c) {
    const auto chunk = cursor.Read(c, kFieldTimestamp | kFieldPid);
    ASSERT_TRUE(cursor.ok()) << TraceReadErrorName(cursor.error());
    for (const TraceRecord& r : chunk) {
      EXPECT_EQ(r.timestamp, records[next].timestamp);
      EXPECT_EQ(r.pid, records[next].pid);
      EXPECT_EQ(r.timer, defaults.timer);
      EXPECT_EQ(r.timeout, defaults.timeout);
      EXPECT_EQ(r.callsite, defaults.callsite);
      EXPECT_EQ(r.op, defaults.op);
      EXPECT_EQ(r.flags, defaults.flags);
      EXPECT_EQ(r.stack, kEmptyStack);
      ++next;
    }
  }
  EXPECT_EQ(next, records.size());
  std::remove(path.c_str());

  // v2 rows are fixed width: the mask is ignored and every field comes
  // back populated.
  TraceWriteOptions v2;
  v2.version = kTraceFileVersionChunked;
  v2.chunk_records = 256;
  const std::string v2_path = ::testing::TempDir() + "/tempo_v2_projection.trc";
  ASSERT_TRUE(WriteTraceFile(v2_path, records, callsites, v2));
  auto v2_reader = TraceChunkReader::Open(v2_path, &error);
  ASSERT_TRUE(v2_reader.has_value()) << TraceReadErrorName(error);
  auto v2_cursor = v2_reader->MakeCursor();
  const auto chunk = v2_cursor.Read(0, kFieldTimestamp);
  ASSERT_TRUE(v2_cursor.ok());
  ASSERT_FALSE(chunk.empty());
  EXPECT_EQ(chunk[0].timer, records[0].timer);
  EXPECT_EQ(chunk[0].op, records[0].op);
  std::remove(v2_path.c_str());
}

TEST(TraceV3Test, ChunkSingleRecordAndWrongCountRejected) {
  CallsiteRegistry callsites;
  const auto records = MakeTrace(&callsites, 1);
  std::vector<uint8_t> bytes;
  ChunkZone zone;
  V3EncodeScratch encode_scratch;
  EncodeV3Chunk(std::span<const TraceRecord>(records), BlockCodecId::kTempoLz, &encode_scratch,
                &bytes, &zone);
  V3DecodeScratch scratch;
  std::vector<TraceRecord> back;
  ASSERT_EQ(DecodeV3Chunk(bytes.data(), bytes.size(), 1, &scratch, &back),
            ChunkParse::kOk);
  ASSERT_EQ(back.size(), 1u);
  EXPECT_TRUE(SameRecord(back[0], records[0]));
  back.clear();
  EXPECT_NE(DecodeV3Chunk(bytes.data(), bytes.size(), 2, &scratch, &back),
            ChunkParse::kOk);
}

TEST(TraceV3Test, ChunkUnknownCodecsReported) {
  CallsiteRegistry callsites;
  const auto records = MakeTrace(&callsites, 64);
  std::vector<uint8_t> bytes;
  ChunkZone zone;
  V3EncodeScratch encode_scratch;
  EncodeV3Chunk(std::span<const TraceRecord>(records), BlockCodecId::kNone, &encode_scratch,
                &bytes, &zone);
  V3DecodeScratch scratch;
  std::vector<TraceRecord> back;
  // Unknown block codec id.
  std::vector<uint8_t> bad_block = bytes;
  bad_block[0] = 77;
  EXPECT_EQ(DecodeV3Chunk(bad_block.data(), bad_block.size(), 64, &scratch, &back),
            ChunkParse::kCodec);
  // Unknown stripe codec id: first stripe starts right after the header.
  std::vector<uint8_t> bad_stripe = bytes;
  bad_stripe[9] = 250;
  back.clear();
  EXPECT_EQ(DecodeV3Chunk(bad_stripe.data(), bad_stripe.size(), 64, &scratch, &back),
            ChunkParse::kCodec);
}

TEST(TraceV3Test, ChunkTruncationRejected) {
  CallsiteRegistry callsites;
  const auto records = MakeTrace(&callsites, 100);
  std::vector<uint8_t> bytes;
  ChunkZone zone;
  V3EncodeScratch encode_scratch;
  EncodeV3Chunk(std::span<const TraceRecord>(records), BlockCodecId::kTempoLz, &encode_scratch,
                &bytes, &zone);
  V3DecodeScratch scratch;
  std::vector<TraceRecord> back;
  for (const size_t keep : {size_t{0}, size_t{5}, size_t{9}, bytes.size() / 2,
                            bytes.size() - 1}) {
    back.clear();
    EXPECT_NE(DecodeV3Chunk(bytes.data(), keep, 100, &scratch, &back), ChunkParse::kOk)
        << keep;
  }
}

TEST(TraceV3Test, FileRoundTripMatchesV2) {
  CallsiteRegistry callsites;
  const auto records = MakeTrace(&callsites, 3000);
  TraceWriteOptions v2;
  v2.version = kTraceFileVersionChunked;
  v2.chunk_records = 256;
  TraceWriteOptions v3;
  v3.version = kTraceFileVersionColumnar;
  v3.chunk_records = 256;

  const auto v2_bytes = SerializeTrace(records, callsites, v2);
  const auto v3_bytes = SerializeTrace(records, callsites, v3);
  EXPECT_LT(v3_bytes.size(), v2_bytes.size());

  const Sweep from_v2 = SweepBytes(v2_bytes);
  const Sweep from_v3 = SweepBytes(v3_bytes);
  ASSERT_TRUE(from_v2.ok());
  ASSERT_TRUE(from_v3.ok());
  ASSERT_EQ(from_v3.records.size(), from_v2.records.size());
  for (size_t i = 0; i < from_v2.records.size(); ++i) {
    EXPECT_TRUE(SameRecord(from_v3.records[i], from_v2.records[i])) << i;
  }
  ASSERT_EQ(from_v3.callsites.size(), callsites.size());
  for (CallsiteId id = 0; id < callsites.size(); ++id) {
    EXPECT_EQ(from_v3.callsites.Name(id), callsites.Name(id));
  }
}

TEST(TraceV3Test, EmptyTraceRoundTripsV3) {
  CallsiteRegistry callsites;
  TraceWriteOptions v3;
  v3.version = kTraceFileVersionColumnar;
  const Sweep loaded = SweepBytes(SerializeTrace({}, callsites, v3));
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(loaded.records.empty());
}

TEST(TraceV3Test, FileTruncationAndCodecErrorsTyped) {
  CallsiteRegistry callsites;
  const auto records = MakeTrace(&callsites, 600);
  TraceWriteOptions v3;
  v3.version = kTraceFileVersionColumnar;
  v3.chunk_records = 128;
  v3.block_codec = BlockCodecId::kNone;
  const auto bytes = SerializeTrace(records, callsites, v3);

  std::vector<uint8_t> cut(bytes.begin(), bytes.end() - 3);
  EXPECT_EQ(SweepBytes(cut).error, TraceReadError::kTruncated);

  // Flip the first chunk's block codec byte to an unknown id: the reader
  // must say "unknown codec", not "corrupt". The first chunk begins right
  // after the header, which we can find by writing the same trace with
  // zero records of payload... simpler: scan for the first difference
  // against a kTempoLz encoding of the same trace — that byte is the
  // first chunk's codec id.
  TraceWriteOptions lz = v3;
  lz.block_codec = BlockCodecId::kTempoLz;
  const auto lz_bytes = SerializeTrace(records, callsites, lz);
  size_t chunk0 = 0;
  while (chunk0 < bytes.size() && chunk0 < lz_bytes.size() &&
         bytes[chunk0] == lz_bytes[chunk0]) {
    ++chunk0;
  }
  ASSERT_LT(chunk0, bytes.size());
  ASSERT_EQ(bytes[chunk0], static_cast<uint8_t>(BlockCodecId::kNone));
  std::vector<uint8_t> bad = bytes;
  bad[chunk0] = 99;
  EXPECT_EQ(SweepBytes(bad).error, TraceReadError::kCodec);
}

TEST(TraceV3Test, ChunkReaderStreamsV3) {
  CallsiteRegistry callsites;
  const auto records = MakeTrace(&callsites, 2000);
  TraceWriteOptions v3;
  v3.version = kTraceFileVersionColumnar;
  v3.chunk_records = 300;
  const std::string path = ::testing::TempDir() + "/tempo_v3_reader.trc";
  ASSERT_TRUE(WriteTraceFile(path, records, callsites, v3));

  TraceReadError error = TraceReadError::kIo;
  auto reader = TraceChunkReader::Open(path, &error);
  ASSERT_TRUE(reader.has_value()) << TraceReadErrorName(error);
  EXPECT_EQ(reader->version(), kTraceFileVersionColumnar);
  EXPECT_EQ(reader->record_count(), records.size());
  ASSERT_EQ(reader->chunk_count(), (records.size() + 299) / 300);
  EXPECT_GT(reader->payload_bytes(), 0u);
  EXPECT_LT(reader->payload_bytes(), records.size() * kEncodedRecordSize);

  auto cursor = reader->MakeCursor();
  size_t next = 0;
  for (size_t c = 0; c < reader->chunk_count(); ++c) {
    EXPECT_TRUE(reader->chunk(c).zone.valid);
    const auto chunk = cursor.Read(c);
    ASSERT_TRUE(cursor.ok()) << TraceReadErrorName(cursor.error());
    ASSERT_EQ(chunk.size(), reader->chunk(c).records);
    for (const TraceRecord& r : chunk) {
      EXPECT_EQ(r.timestamp, records[next].timestamp);
      EXPECT_EQ(r.pid, records[next].pid);
      EXPECT_EQ(r.stack, kEmptyStack);
      ++next;
    }
  }
  EXPECT_EQ(next, records.size());
  std::remove(path.c_str());
}

TEST(TraceV3Test, StreamWriterByteIdenticalToSerialize) {
  CallsiteRegistry callsites;
  const auto records = MakeTrace(&callsites, 1500);
  TraceWriteOptions v3;
  v3.version = kTraceFileVersionColumnar;
  v3.chunk_records = 128;
  const std::string path = ::testing::TempDir() + "/tempo_v3_stream.trc";
  {
    TraceStreamWriter writer(path, &callsites, v3);
    ASSERT_TRUE(writer.ok());
    for (const TraceRecord& r : records) {
      ASSERT_TRUE(writer.Append(r));
    }
    ASSERT_TRUE(writer.Close());
    EXPECT_EQ(writer.records_written(), records.size());
  }
  const auto expected = SerializeTrace(records, callsites, v3);
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::vector<uint8_t> actual(expected.size() + 1);
  const size_t n = std::fread(actual.data(), 1, actual.size(), f);
  std::fclose(f);
  actual.resize(n);
  EXPECT_EQ(actual, expected);
  std::remove(path.c_str());
}

// --- predicate + query ---

TEST(QueryTest, PredicateMatchesRecordsExactly) {
  Predicate p;
  p.time_begin = 100;
  p.time_end = 200;
  p.pids = {3, 5};
  p.op_mask = static_cast<uint8_t>(1u << static_cast<uint8_t>(TimerOp::kSet));
  TraceRecord r;
  r.timestamp = 150;
  r.pid = 3;
  r.op = TimerOp::kSet;
  EXPECT_TRUE(p.Matches(r));
  r.timestamp = 200;  // end is exclusive
  EXPECT_FALSE(p.Matches(r));
  r.timestamp = 100;  // begin is inclusive
  EXPECT_TRUE(p.Matches(r));
  r.pid = 4;
  EXPECT_FALSE(p.Matches(r));
  r.pid = 5;
  r.op = TimerOp::kCancel;
  EXPECT_FALSE(p.Matches(r));
  EXPECT_FALSE(p.MatchesAll());
  EXPECT_TRUE(Predicate{}.MatchesAll());
}

TEST(QueryTest, PredicateZonePruningIsConservative) {
  ChunkZone zone;
  zone.valid = true;
  zone.min_timestamp = 1000;
  zone.max_timestamp = 2000;
  zone.pid_digest = PidDigestBit(7);
  zone.op_mask = static_cast<uint8_t>(1u << static_cast<uint8_t>(TimerOp::kSet));

  Predicate p;
  EXPECT_TRUE(p.MayMatch(zone));  // match-all predicate
  p.time_begin = 2001;
  EXPECT_FALSE(p.MayMatch(zone));
  p.time_begin = 2000;
  EXPECT_TRUE(p.MayMatch(zone));  // max timestamp is inclusive
  p = Predicate{};
  p.time_end = 1000;
  EXPECT_FALSE(p.MayMatch(zone));
  p = Predicate{};
  p.pids = {7};
  EXPECT_TRUE(p.MayMatch(zone));
  p.pids = {8};
  // Bloom digests can collide; only assert the non-colliding direction.
  if ((zone.pid_digest & PidDigestBit(8)) == 0) {
    EXPECT_FALSE(p.MayMatch(zone));
  }
  p = Predicate{};
  p.op_mask = static_cast<uint8_t>(1u << static_cast<uint8_t>(TimerOp::kCancel));
  EXPECT_FALSE(p.MayMatch(zone));
  // An invalid zone never allows a skip.
  EXPECT_TRUE(p.MayMatch(ChunkZone{}));
}

std::string RunQuery(const TraceChunkReader& reader, const QueryOptions& options,
                     size_t jobs, PipelineStats* stats) {
  std::vector<std::unique_ptr<AnalysisPass>> passes;
  passes.push_back(std::make_unique<QueryPass>(options, &reader.callsites()));
  PipelineOptions popts;
  popts.jobs = jobs;
  popts.stats_label = "query-test";
  PipelineRunner runner(popts);
  TraceReadError error = TraceReadError::kIo;
  EXPECT_TRUE(runner.Run(reader, passes, &error)) << TraceReadErrorName(error);
  if (stats != nullptr) {
    *stats = runner.stats();
  }
  return static_cast<QueryPass*>(passes[0].get())->RenderJson();
}

TEST(QueryTest, PushdownSkipsChunksWithoutChangingResults) {
  CallsiteRegistry callsites;
  const auto records = MakeTrace(&callsites, 4000);
  TraceWriteOptions v3;
  v3.version = kTraceFileVersionColumnar;
  v3.chunk_records = 64;
  const std::string path = ::testing::TempDir() + "/tempo_v3_pushdown.trc";
  ASSERT_TRUE(WriteTraceFile(path, records, callsites, v3));
  auto reader = TraceChunkReader::Open(path);
  ASSERT_TRUE(reader.has_value());

  // A narrow time window: most chunks cannot match and must be skipped.
  QueryOptions query;
  query.predicate.time_begin = records[records.size() / 2].timestamp;
  query.predicate.time_end = records[records.size() / 2 + 100].timestamp;
  query.group_by = QueryGroupBy::kPid;

  PipelineStats pushed_stats;
  const std::string pushed = RunQuery(*reader, query, 1, &pushed_stats);
  EXPECT_GT(pushed_stats.chunks_skipped, 0u);
  EXPECT_LT(pushed_stats.chunks, reader->chunk_count());

  // Reference: the same filter applied by hand to the full trace.
  uint64_t expected_matches = 0;
  for (const TraceRecord& r : records) {
    if (query.predicate.Matches(r)) {
      ++expected_matches;
    }
  }
  QueryPass serial(query, &callsites);
  serial.Accumulate(std::span<const TraceRecord>(records.data(), records.size()));
  EXPECT_EQ(serial.matched(), expected_matches);
  // Pushed-down totals match the full scan (scanned differs, matched and
  // groups must not).
  std::ostringstream want;
  want << "\"matched\": " << expected_matches;
  EXPECT_NE(pushed.find(want.str()), std::string::npos) << pushed;

  // Parallel equals serial, byte for byte.
  PipelineStats parallel_stats;
  const std::string parallel = RunQuery(*reader, query, 4, &parallel_stats);
  EXPECT_EQ(parallel, pushed);
  EXPECT_EQ(parallel_stats.chunks_skipped, pushed_stats.chunks_skipped);
  std::remove(path.c_str());
}

TEST(QueryTest, NullPredicatePinsEveryChunk) {
  CallsiteRegistry callsites;
  const auto records = MakeTrace(&callsites, 1000);
  TraceWriteOptions v3;
  v3.version = kTraceFileVersionColumnar;
  v3.chunk_records = 64;
  const std::string path = ::testing::TempDir() + "/tempo_v3_pin.trc";
  ASSERT_TRUE(WriteTraceFile(path, records, callsites, v3));
  auto reader = TraceChunkReader::Open(path);
  ASSERT_TRUE(reader.has_value());

  // A query that needs nothing, plus SummaryPass-like null-predicate pass
  // — the pipeline must decode everything anyway.
  QueryOptions query;
  query.predicate.time_end = 0;  // matches no record
  std::vector<std::unique_ptr<AnalysisPass>> passes;
  passes.push_back(std::make_unique<QueryPass>(query, &callsites));
  PipelineRunner pushed;
  ASSERT_TRUE(pushed.Run(*reader, passes, nullptr));
  EXPECT_EQ(pushed.stats().chunks_skipped, reader->chunk_count());
  EXPECT_EQ(pushed.stats().chunks, 0u);

  class PinAllPass : public QueryPass {
   public:
    using QueryPass::QueryPass;
    const Predicate* predicate() const override { return nullptr; }
  };
  std::vector<std::unique_ptr<AnalysisPass>> pinned;
  pinned.push_back(std::make_unique<QueryPass>(query, &callsites));
  pinned.push_back(std::make_unique<PinAllPass>(QueryOptions{}, &callsites));
  PipelineRunner full;
  ASSERT_TRUE(full.Run(*reader, pinned, nullptr));
  EXPECT_EQ(full.stats().chunks_skipped, 0u);
  EXPECT_EQ(full.stats().chunks, reader->chunk_count());
  EXPECT_EQ(full.stats().records, records.size());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace tempo

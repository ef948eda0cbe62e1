// Binary trace codec.
//
// The study's workflow was: log binary records in the kernel, then post-run
// read the buffer out and convert it to text for analysis (Section 3.2).
// This codec provides the equivalent: a fixed-width little-endian record
// encoding plus a text formatter. The binary form is also what the
// instrumentation-overhead benchmark serialises.

#ifndef TEMPO_SRC_TRACE_CODEC_H_
#define TEMPO_SRC_TRACE_CODEC_H_

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "src/trace/callsite.h"
#include "src/trace/record.h"

namespace tempo {

// Size of one encoded record in bytes.
inline constexpr size_t kEncodedRecordSize = 48;

// ---------------------------------------------------------------------------
// v3 columnar chunk codec.
//
// A v3 chunk stores one contiguous stripe per TraceRecord field instead of
// interleaved rows. Each stripe is encoded with whichever per-column codec
// comes out smallest (delta+zig-zag+varint for the clock-like fields,
// dictionary or run-length for the id-like ones, raw as the bound), and the
// concatenated stripes are optionally passed through an LZ-style block
// codec. Every chunk is self-describing: codec ids travel with the data, so
// a reader built later can reject an unknown codec with a typed error
// instead of misparsing bytes.

// Per-stripe encodings. Values are wire bytes — renumbering breaks files.
enum class StripeCodec : uint8_t {
  kRaw = 0,          // 8-byte little-endian lanes, the fallback bound
  kVarint = 1,       // plain varints
  kDeltaVarint = 2,  // zig-zag(v[i] - v[i-1]) varints, v[-1] = 0
  kDict = 3,         // first-appearance dictionary + varint indexes
  kRle = 4,          // (value, run-length) varint pairs
};

// Outcome of decoding one stripe or chunk. kTruncated: the declared layout
// runs past the available bytes; kCorrupt: the bytes are self-inconsistent
// (dict index out of range, run lengths that disagree with the record
// count, trailing garbage); kCodec: a codec id this build does not know.
enum class ChunkParse : uint8_t { kOk = 0, kTruncated = 1, kCorrupt = 2, kCodec = 3 };

// Reusable scratch for the v3 encoder, the twin of V3DecodeScratch: a
// writer that keeps one encodes chunk after chunk without reallocating its
// columns or its dictionary.
struct V3EncodeScratch {
  // One slot of the open-addressing dictionary table. A slot is occupied
  // only while its generation is the scratch's current one, so each new
  // column starts from an empty table without clearing it.
  struct DictSlot {
    uint64_t value = 0;
    uint32_t index = 0;
    uint32_t generation = 0;
  };

  std::vector<uint64_t> lanes[10];  // one column per field
  std::vector<DictSlot> table;      // value -> dictionary index
  uint32_t generation = 0;
  std::vector<uint64_t> dict;       // distinct values, first-appearance order
  std::vector<uint32_t> indexes;    // dictionary index of each value
  std::vector<uint8_t> blob;        // stripes awaiting a block codec
};

// Appends `values` encoded with `codec` to `out`. kDict/kRle encodings are
// deterministic (first-appearance dictionary order), which is what keeps
// streamed and buffered v3 files byte-identical.
void EncodeStripe(std::span<const uint64_t> values, StripeCodec codec,
                  std::vector<uint8_t>* out);

// The exact length EncodeStripe(values, codec) appends, computed from the
// values' bit widths without writing them. Sizing kDict builds the
// dictionary in `scratch`.
size_t StripeSize(std::span<const uint64_t> values, StripeCodec codec,
                  V3EncodeScratch* scratch);

// Appends `values` encoded with the codec whose encoding is smallest (ties
// break toward the lower codec id) and returns that codec. The candidates
// are sized, not encoded: one pass gives the varint, delta and run-length
// sizes, raw is 8 bytes a value, and the dictionary is built only while it
// can still win. Only the winner is written.
StripeCodec EncodeStripeBest(std::span<const uint64_t> values, V3EncodeScratch* scratch,
                             std::vector<uint8_t>* out);

// Decodes exactly `count` values of a stripe encoded as `codec` from
// [data, data + size). The stripe must consume `size` bytes exactly.
ChunkParse DecodeStripe(StripeCodec codec, const uint8_t* data, size_t size,
                        size_t count, std::vector<uint64_t>* out);

// ---------------------------------------------------------------------------
// Block compression: whole-chunk byte-level codecs behind one interface.
// kTempoLz is a self-contained LZ77 (hash-chain matcher, LZ4-style token
// stream) so the repo needs no external compression dependency.

enum class BlockCodecId : uint8_t {
  kNone = 0,
  kTempoLz = 1,
};

class BlockCodec {
 public:
  virtual ~BlockCodec() = default;
  virtual BlockCodecId id() const = 0;
  // Appends the compressed form of [data, data+size) to `out`.
  virtual void Compress(const uint8_t* data, size_t size, std::vector<uint8_t>* out) const = 0;
  // Decompresses [data, data+size) into exactly `raw_size` bytes at `raw`.
  // False when the stream is malformed or does not fill `raw_size`.
  virtual bool Decompress(const uint8_t* data, size_t size, uint8_t* raw,
                          size_t raw_size) const = 0;
};

// The codec for an id, or nullptr for unknown ids (the reader maps that to
// ChunkParse::kCodec / TraceReadError::kCodec).
const BlockCodec* GetBlockCodec(BlockCodecId id);

// ---------------------------------------------------------------------------
// Whole-chunk encode/decode.

// The digest bit a pid contributes to ChunkZone::pid_digest. Pids travel
// the wire as 16-bit values, so the digest hashes that projection.
inline uint64_t PidDigestBit(Pid pid) {
  const uint64_t pid16 = static_cast<uint16_t>(static_cast<int16_t>(pid));
  return uint64_t{1} << ((pid16 * 0x9E3779B97F4A7C15ull) >> 58);
}

// Zone map of one chunk, stored in the v3 index footer so queries can skip
// the chunk without decoding it. All fields are conservative summaries.
struct ChunkZone {
  bool valid = false;       // false: no zone (v1/v2 chunk) — never skip
  SimTime min_timestamp = 0;
  SimTime max_timestamp = 0;
  uint64_t pid_digest = 0;  // 64-bit bloom over the pids present
  uint8_t op_mask = 0;      // bit (1 << op) set when the op occurs

  // What one record's fields add; the timestamps start at the chunk's
  // first record's. An op past kUnblock (a corrupt chunk) shifts in range.
  void AddTimestamp(SimTime timestamp) {
    min_timestamp = std::min(min_timestamp, timestamp);
    max_timestamp = std::max(max_timestamp, timestamp);
  }
  void AddPid(Pid pid) { pid_digest |= PidDigestBit(pid); }
  void AddOp(TimerOp op) {
    op_mask |= static_cast<uint8_t>(1u << (static_cast<uint8_t>(op) & 7));
  }
};

// Folds one record into `zone`: the step EncodeV3Chunk takes for every
// record it stores and DecodeV3Chunk for every record it decodes (a
// projection adds the fields it decodes), so writer and reader agree.
inline void ZoneStep(const TraceRecord& record, ChunkZone* zone) {
  zone->AddTimestamp(record.timestamp);
  zone->AddPid(record.pid);
  zone->AddOp(record.op);
}

// Encodes `records` as one self-contained v3 chunk (chunk header +
// stripes, optionally block-compressed) appended to `out`; fills `zone`.
void EncodeV3Chunk(std::span<const TraceRecord> records, BlockCodecId block_codec,
                   V3EncodeScratch* scratch, std::vector<uint8_t>* out, ChunkZone* zone);

// Reusable scratch for DecodeV3Chunk so a streaming reader does not
// reallocate per chunk.
struct V3DecodeScratch {
  std::vector<uint8_t> raw;                // decompressed stripe blob
  std::vector<uint64_t> lanes[10];         // one decoded column per field
};

// Field bits for projection pushdown, in v3 stripe order. A consumer that
// declares the fields it reads lets the columnar decoder skip the other
// stripes entirely — unprojected fields come back default-initialised.
inline constexpr uint16_t kFieldTimestamp = 1u << 0;
inline constexpr uint16_t kFieldTimer = 1u << 1;
inline constexpr uint16_t kFieldTimeout = 1u << 2;
inline constexpr uint16_t kFieldExpiry = 1u << 3;
inline constexpr uint16_t kFieldCallsite = 1u << 4;
inline constexpr uint16_t kFieldStack = 1u << 5;
inline constexpr uint16_t kFieldPid = 1u << 6;
inline constexpr uint16_t kFieldTid = 1u << 7;
inline constexpr uint16_t kFieldOp = 1u << 8;
inline constexpr uint16_t kFieldFlags = 1u << 9;
inline constexpr uint16_t kAllTraceFields = (1u << 10) - 1;

// Decodes a chunk at [data, data + size) that must hold exactly
// `expected_records` records, appending them to `out`. `size` must span
// exactly one chunk. `field_mask` selects the stripes actually decoded
// (projection pushdown): unselected fields are default-initialised in the
// output records and their stripe payloads are only skipped over, not
// validated — codec ids are still checked, so an unreadable file is still
// reported as kCodec rather than silently projected around.
//
// `recycle_rows` is a streaming-reader optimisation: when true, the last
// `expected_records` rows of `out` are overwritten in place instead of
// being appended and re-initialised. The caller promises those rows came
// from a previous call whose field mask was a subset of `field_mask`, so
// every field outside `field_mask` still holds its default. On failure
// the recycled rows are left unspecified.
//
// `callsite_count` is the size of the file's call-site table: a decoded
// call-site id at or past it fails the chunk with kCorrupt, like any other
// value too wide for its field. It is checked only when the call-site
// stripe is decoded. The default admits every CallsiteId.
//
// On success `*zone`, when given, holds the decoded records' zone in the
// fields `field_mask` decoded; its other fields keep their defaults.
ChunkParse DecodeV3Chunk(const uint8_t* data, size_t size, uint32_t expected_records,
                         V3DecodeScratch* scratch, std::vector<TraceRecord>* out,
                         uint16_t field_mask = kAllTraceFields,
                         bool recycle_rows = false,
                         uint64_t callsite_count = uint64_t{1} << 32,
                         ChunkZone* zone = nullptr);

// Appends the binary encoding of each of `records` to `out`: the rows are
// sized once and their fields stored in place.
void EncodeRecords(std::span<const TraceRecord> records, std::vector<uint8_t>* out);

// Appends the binary encoding of `record` to `out`.
void EncodeRecord(const TraceRecord& record, std::vector<uint8_t>* out);

// Decodes one record starting at `data` (which must have at least
// kEncodedRecordSize bytes). Returns nullopt on a corrupt op field.
std::optional<TraceRecord> DecodeRecord(const uint8_t* data);

// Renders one record as a human-readable line, resolving call-site names.
std::string FormatRecord(const TraceRecord& record, const CallsiteRegistry& callsites);

}  // namespace tempo

#endif  // TEMPO_SRC_TRACE_CODEC_H_

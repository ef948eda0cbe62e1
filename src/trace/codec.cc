#include "src/trace/codec.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstring>

#include "src/trace/wire.h"

namespace tempo {

void EncodeRecords(std::span<const TraceRecord> records, std::vector<uint8_t>* out) {
  // Layout (little endian):
  //   0  timestamp   i64
  //   8  timer       u64
  //  16  timeout     i64
  //  24  expiry(low) u32   -- expiry is stored as ns / 1024 to fit 32+8 bits
  //  28  callsite    u32
  //  32  stack       u32
  //  36  pid         i16
  //  38  tid         i16
  //  40  op          u8
  //  41  expiry(hi)  u8
  //  42  flags       u16
  //  44  reserved    u32
  // Expiry is quantised to 1.024 us in the binary form; the in-memory form
  // keeps full resolution. This mirrors real binary trace formats that trade
  // precision of redundant fields for record density.
  const size_t at = out->size();
  out->resize(at + records.size() * kEncodedRecordSize);
  uint8_t* p = out->data() + at;
  for (const TraceRecord& record : records) {
    const uint64_t expiry_q = static_cast<uint64_t>(record.expiry) >> 10;
    wire::Store64(static_cast<uint64_t>(record.timestamp), p + 0);
    wire::Store64(record.timer, p + 8);
    wire::Store64(static_cast<uint64_t>(record.timeout), p + 16);
    wire::Store32(static_cast<uint32_t>(expiry_q), p + 24);
    wire::Store32(record.callsite, p + 28);
    wire::Store32(record.stack, p + 32);
    wire::Store16(static_cast<uint16_t>(record.pid), p + 36);
    wire::Store16(static_cast<uint16_t>(record.tid), p + 38);
    p[40] = static_cast<uint8_t>(record.op);
    p[41] = static_cast<uint8_t>(expiry_q >> 32);
    wire::Store16(record.flags, p + 42);
    wire::Store32(0, p + 44);
    p += kEncodedRecordSize;
  }
}

void EncodeRecord(const TraceRecord& record, std::vector<uint8_t>* out) {
  EncodeRecords(std::span<const TraceRecord>(&record, 1), out);
}

std::optional<TraceRecord> DecodeRecord(const uint8_t* data) {
  TraceRecord r;
  r.timestamp = static_cast<SimTime>(wire::Get64(data + 0));
  r.timer = wire::Get64(data + 8);
  r.timeout = static_cast<SimDuration>(wire::Get64(data + 16));
  const uint64_t expiry_lo = wire::Get32(data + 24);
  r.callsite = wire::Get32(data + 28);
  r.stack = wire::Get32(data + 32);
  r.pid = static_cast<Pid>(static_cast<int16_t>(wire::Get16(data + 36)));
  r.tid = static_cast<Tid>(static_cast<int16_t>(wire::Get16(data + 38)));
  const uint8_t op = data[40];
  if (op > static_cast<uint8_t>(TimerOp::kUnblock)) {
    return std::nullopt;
  }
  r.op = static_cast<TimerOp>(op);
  const uint64_t expiry_hi = data[41];
  r.expiry = static_cast<SimTime>(((expiry_hi << 32) | expiry_lo) << 10);
  r.flags = wire::Get16(data + 42);
  return r;
}

// ---------------------------------------------------------------------------
// v3 stripe codecs.
//
// The writer never trial-encodes. Every candidate's length is computed
// exactly, the smallest is chosen, and only the winner is written, straight
// into its final place at its known length.

namespace {

// Length of wire::PutVarint(v): seven payload bits per byte, so
// ceil(w / 7) for a bit width w in 1..64, which (9w + 64) / 64 equals
// exactly without a division.
inline size_t VarintSize(uint64_t v) {
  const size_t width = static_cast<size_t>(std::bit_width(v | 1));
  return (width * 9 + 64) >> 6;
}

// wire::PutVarint into bytes the caller has already sized.
inline uint8_t* PutVarintAt(uint64_t v, uint8_t* p) {
  while (v >= 0x80) {
    *p++ = static_cast<uint8_t>(v) | 0x80;
    v >>= 7;
  }
  *p++ = static_cast<uint8_t>(v);
  return p;
}

// The codecs whose length depends only on each value and its predecessor,
// sized in one pass.
struct PassSizes {
  size_t varint = 0;
  size_t delta = 0;
  size_t rle = 0;
};

PassSizes MeasurePass(std::span<const uint64_t> values) {
  PassSizes sizes;
  if (values.empty()) {
    return sizes;
  }
  // A run costs its value plus its length, whose varint is one byte until
  // the run reaches 128 and one byte more at each further power of 128.
  // Run boundaries are data-dependent, so they are counted with a mask
  // rather than a branch; only runs longer than 127 values branch.
  uint64_t prev = values[0];
  sizes.varint = VarintSize(prev);
  sizes.delta = VarintSize(wire::ZigZag(prev));
  sizes.rle = sizes.varint + 1;
  size_t run_start = 0;
  for (size_t i = 1; i < values.size(); ++i) {
    const uint64_t v = values[i];
    const size_t bytes = VarintSize(v);
    const size_t same = v == prev ? 1 : 0;
    sizes.varint += bytes;
    sizes.delta += VarintSize(wire::ZigZag(v - prev));
    sizes.rle += (bytes + 1) & (same - 1);
    run_start = same != 0 ? run_start : i;
    if (i - run_start >= 127) [[unlikely]] {
      sizes.rle += VarintSize(i - run_start + 1) - VarintSize(i - run_start);
    }
    prev = v;
  }
  return sizes;
}

// Builds the first-appearance dictionary of `values` into scratch->dict and
// scratch->indexes and returns the exact kDict length. The running length
// counts one byte for every index not yet seen, so it never exceeds the
// final one; once it reaches `limit` the dictionary cannot win, and the
// build stops and returns `limit`.
size_t BuildDict(std::span<const uint64_t> values, size_t limit, V3EncodeScratch* scratch) {
  const size_t n = values.size();
  scratch->dict.clear();
  scratch->indexes.resize(n);
  size_t count_bytes = 1;  // VarintSize(dict.size())
  size_t entry_bytes = 0;
  size_t index_bytes = n;
  if (count_bytes + index_bytes >= limit) {
    return limit;
  }

  // A power-of-two table at most half full, reused across columns.
  size_t slots = 16;
  while (slots < 2 * n) {
    slots <<= 1;
  }
  auto& table = scratch->table;
  if (table.size() < slots) {
    table.assign(slots, {});
    scratch->generation = 0;
  }
  if (++scratch->generation == 0) {
    for (V3EncodeScratch::DictSlot& slot : table) {
      slot.generation = 0;
    }
    scratch->generation = 1;
  }
  const uint32_t generation = scratch->generation;
  const size_t mask = table.size() - 1;
  const int shift = 64 - std::countr_zero(table.size());

  for (size_t i = 0; i < n; ++i) {
    const uint64_t v = values[i];
    size_t h = static_cast<size_t>((v * 0x9E3779B97F4A7C15ull) >> shift);
    while (table[h].generation == generation && table[h].value != v) {
      h = (h + 1) & mask;
    }
    V3EncodeScratch::DictSlot& slot = table[h];
    if (slot.generation != generation) {
      slot = {v, static_cast<uint32_t>(scratch->dict.size()), generation};
      scratch->dict.push_back(v);
      entry_bytes += VarintSize(v);
      count_bytes = VarintSize(scratch->dict.size());
    }
    scratch->indexes[i] = slot.index;
    index_bytes += VarintSize(slot.index) - 1;
    if (count_bytes + entry_bytes + index_bytes >= limit) {
      return limit;
    }
  }
  return count_bytes + entry_bytes + index_bytes;
}

// Writes `values` encoded as `codec` into the StripeSize bytes at `p`.
// kDict writes the dictionary BuildDict left in `scratch`.
void WriteStripe(std::span<const uint64_t> values, StripeCodec codec,
                 const V3EncodeScratch& scratch, uint8_t* p) {
  switch (codec) {
    case StripeCodec::kRaw:
      for (const uint64_t v : values) {
        wire::Store64(v, p);
        p += 8;
      }
      return;
    case StripeCodec::kVarint:
      for (const uint64_t v : values) {
        p = PutVarintAt(v, p);
      }
      return;
    case StripeCodec::kDeltaVarint: {
      uint64_t prev = 0;
      for (const uint64_t v : values) {
        p = PutVarintAt(wire::ZigZag(v - prev), p);
        prev = v;
      }
      return;
    }
    case StripeCodec::kDict:
      p = PutVarintAt(scratch.dict.size(), p);
      for (const uint64_t v : scratch.dict) {
        p = PutVarintAt(v, p);
      }
      for (const uint32_t index : scratch.indexes) {
        p = PutVarintAt(index, p);
      }
      return;
    case StripeCodec::kRle: {
      size_t i = 0;
      while (i < values.size()) {
        size_t run = 1;
        while (i + run < values.size() && values[i + run] == values[i]) {
          ++run;
        }
        p = PutVarintAt(values[i], p);
        p = PutVarintAt(run, p);
        i += run;
      }
      return;
    }
  }
}

void AppendStripe(std::span<const uint64_t> values, StripeCodec codec, size_t size,
                  const V3EncodeScratch& scratch, std::vector<uint8_t>* out) {
  const size_t at = out->size();
  out->resize(at + size);
  WriteStripe(values, codec, scratch, out->data() + at);
}

}  // namespace

size_t StripeSize(std::span<const uint64_t> values, StripeCodec codec,
                  V3EncodeScratch* scratch) {
  switch (codec) {
    case StripeCodec::kRaw:
      return values.size() * 8;
    case StripeCodec::kVarint:
      return MeasurePass(values).varint;
    case StripeCodec::kDeltaVarint:
      return MeasurePass(values).delta;
    case StripeCodec::kDict:
      return BuildDict(values, SIZE_MAX, scratch);
    case StripeCodec::kRle:
      return MeasurePass(values).rle;
  }
  return 0;
}

void EncodeStripe(std::span<const uint64_t> values, StripeCodec codec,
                  std::vector<uint8_t>* out) {
  V3EncodeScratch scratch;
  AppendStripe(values, codec, StripeSize(values, codec, &scratch), scratch, out);
}

StripeCodec EncodeStripeBest(std::span<const uint64_t> values, V3EncodeScratch* scratch,
                             std::vector<uint8_t>* out) {
  // Candidates in codec-id order: a later one must be strictly smaller to
  // win, so ties go to the lower id.
  const PassSizes pass = MeasurePass(values);
  StripeCodec best = StripeCodec::kRaw;
  size_t best_size = values.size() * 8;
  if (pass.varint < best_size) {
    best = StripeCodec::kVarint;
    best_size = pass.varint;
  }
  if (pass.delta < best_size) {
    best = StripeCodec::kDeltaVarint;
    best_size = pass.delta;
  }
  // The dictionary wins below best_size, and against kRle also on a tie.
  const size_t dict_limit = std::min(best_size, pass.rle + 1);
  const size_t dict_size = BuildDict(values, dict_limit, scratch);
  if (dict_size < dict_limit) {
    best = StripeCodec::kDict;
    best_size = dict_size;
  } else if (pass.rle < best_size) {
    best = StripeCodec::kRle;
    best_size = pass.rle;
  }
  AppendStripe(values, best, best_size, *scratch, out);
  return best;
}

namespace {

// Decode-side varint fast path: callers guarantee at least 10 readable
// bytes, so the per-byte bounds check of wire::GetVarint drops out and
// the common widths (1-byte dict indexes, 2-byte ids, 4-byte deltas)
// become straight-line loads instead of a shift loop.
inline const uint8_t* GetVarintUnchecked(const uint8_t* p, uint64_t* v) {
  const uint64_t b0 = p[0];
  if (b0 < 0x80) {
    *v = b0;
    return p + 1;
  }
  const uint64_t b1 = p[1];
  if (b1 < 0x80) {
    *v = (b0 & 0x7f) | b1 << 7;
    return p + 2;
  }
  const uint64_t b2 = p[2];
  if (b2 < 0x80) {
    *v = (b0 & 0x7f) | (b1 & 0x7f) << 7 | b2 << 14;
    return p + 3;
  }
  const uint64_t b3 = p[3];
  if (b3 < 0x80) {
    *v = (b0 & 0x7f) | (b1 & 0x7f) << 7 | (b2 & 0x7f) << 14 | b3 << 21;
    return p + 4;
  }
  uint64_t value = (b0 & 0x7f) | (b1 & 0x7f) << 7 | (b2 & 0x7f) << 14 | (b3 & 0x7f) << 21;
  unsigned shift = 28;
  p += 4;
  uint64_t byte;
  do {
    byte = *p++;
    value |= (byte & 0x7f) << shift;
    shift += 7;
  } while ((byte & 0x80) != 0 && shift < 70);
  if ((byte & 0x80) != 0) {
    return nullptr;  // encoding exceeds 10 bytes
  }
  *v = value;
  return p;
}

// The tail of a stripe (fewer than 10 bytes left) takes the checked path.
inline const uint8_t* NextVarint(const uint8_t* p, const uint8_t* end, uint64_t* v) {
  return static_cast<size_t>(end - p) >= 10 ? GetVarintUnchecked(p, v)
                                            : wire::GetVarint(p, end, v);
}

}  // namespace

ChunkParse DecodeStripe(StripeCodec codec, const uint8_t* data, size_t size,
                        size_t count, std::vector<uint64_t>* out) {
  // Sized up front and written through a raw pointer: this is the decode
  // hot loop, and per-value push_back bounds checks cost more than the
  // whole varint parse.
  out->resize(count);
  uint64_t* values = out->data();
  const uint8_t* p = data;
  const uint8_t* const end = data + size;
  switch (codec) {
    case StripeCodec::kRaw: {
      if (size < count * 8) {
        return ChunkParse::kTruncated;
      }
      if (size != count * 8) {
        return ChunkParse::kCorrupt;
      }
      for (size_t i = 0; i < count; ++i) {
        values[i] = wire::Get64(p + i * 8);
      }
      return ChunkParse::kOk;
    }
    case StripeCodec::kVarint: {
      if (size == count) {
        // Candidate for the all-one-byte layout (enum-like lanes: op,
        // pid, callsite) — a plain widening copy the compiler
        // vectorizes. A continuation bit anywhere disproves it, and the
        // strict loop below re-decodes for the exact error.
        uint8_t high = 0;
        for (size_t i = 0; i < count; ++i) {
          high |= p[i];
          values[i] = p[i];
        }
        if ((high & 0x80) == 0) {
          return ChunkParse::kOk;
        }
      }
      for (size_t i = 0; i < count; ++i) {
        p = NextVarint(p, end, &values[i]);
        if (p == nullptr) {
          return ChunkParse::kTruncated;
        }
      }
      return p == end ? ChunkParse::kOk : ChunkParse::kCorrupt;
    }
    case StripeCodec::kDeltaVarint: {
      uint64_t prev = 0;
      for (size_t i = 0; i < count; ++i) {
        uint64_t v = 0;
        p = NextVarint(p, end, &v);
        if (p == nullptr) {
          return ChunkParse::kTruncated;
        }
        prev += wire::UnZigZag(v);
        values[i] = prev;
      }
      return p == end ? ChunkParse::kOk : ChunkParse::kCorrupt;
    }
    case StripeCodec::kDict: {
      uint64_t dict_count = 0;
      p = wire::GetVarint(p, end, &dict_count);
      if (p == nullptr) {
        return ChunkParse::kTruncated;
      }
      if (dict_count > count) {
        return ChunkParse::kCorrupt;  // more entries than values cannot happen
      }
      std::vector<uint64_t> dict;
      dict.reserve(dict_count);
      for (uint64_t i = 0; i < dict_count; ++i) {
        uint64_t v = 0;
        p = wire::GetVarint(p, end, &v);
        if (p == nullptr) {
          return ChunkParse::kTruncated;
        }
        dict.push_back(v);
      }
      for (size_t i = 0; i < count; ++i) {
        uint64_t index = 0;
        p = NextVarint(p, end, &index);
        if (p == nullptr) {
          return ChunkParse::kTruncated;
        }
        if (index >= dict.size()) {
          return ChunkParse::kCorrupt;
        }
        values[i] = dict[index];
      }
      return p == end ? ChunkParse::kOk : ChunkParse::kCorrupt;
    }
    case StripeCodec::kRle: {
      size_t filled = 0;
      while (filled < count) {
        uint64_t value = 0;
        uint64_t run = 0;
        p = NextVarint(p, end, &value);
        if (p != nullptr) {
          p = NextVarint(p, end, &run);
        }
        if (p == nullptr) {
          return ChunkParse::kTruncated;
        }
        if (run == 0 || run > count - filled) {
          return ChunkParse::kCorrupt;
        }
        std::fill_n(values + filled, static_cast<size_t>(run), value);
        filled += static_cast<size_t>(run);
      }
      return p == end ? ChunkParse::kOk : ChunkParse::kCorrupt;
    }
  }
  return ChunkParse::kCodec;
}

// ---------------------------------------------------------------------------
// TempoLz: a self-contained LZ77 with an LZ4-style token stream.
//
// Sequence layout: token byte (high nibble literal length, low nibble match
// length - 4, 15 meaning "extended by 255-terminated bytes"), literal
// length extension, literals, u16 little-endian match offset (>= 1), match
// length extension. The final sequence carries literals only — the stream
// simply ends after them. Matches are found with a 64Ki-entry hash table
// over 4-byte prefixes and are limited to a 64KiB window (u16 offset).

namespace {

constexpr size_t kLzMinMatch = 4;
constexpr size_t kLzMaxOffset = 0xffff;
constexpr unsigned kLzHashBits = 16;

uint32_t LzLoad32(const uint8_t* p) {
  uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}

uint32_t LzHash(const uint8_t* p) {
  return (LzLoad32(p) * 2654435761u) >> (32 - kLzHashBits);
}

void LzPutLength(size_t len, std::vector<uint8_t>* out) {
  while (len >= 255) {
    out->push_back(255);
    len -= 255;
  }
  out->push_back(static_cast<uint8_t>(len));
}

class TempoLzCodec : public BlockCodec {
 public:
  BlockCodecId id() const override { return BlockCodecId::kTempoLz; }

  void Compress(const uint8_t* data, size_t size, std::vector<uint8_t>* out) const override {
    std::vector<uint32_t> table(size_t{1} << kLzHashBits, 0xffffffffu);
    const uint8_t* const end = data + size;
    const uint8_t* anchor = data;
    const uint8_t* p = data;
    // The last kLzMinMatch bytes never start a match; they flush as tail
    // literals.
    const uint8_t* const match_limit = size > kLzMinMatch ? end - kLzMinMatch : data;
    while (p < match_limit) {
      const uint32_t h = LzHash(p);
      const uint32_t candidate = table[h];
      table[h] = static_cast<uint32_t>(p - data);
      const uint8_t* match = candidate == 0xffffffffu ? nullptr : data + candidate;
      if (match == nullptr || p - match > static_cast<ptrdiff_t>(kLzMaxOffset) ||
          LzLoad32(match) != LzLoad32(p)) {
        ++p;
        continue;
      }
      size_t match_len = kLzMinMatch;
      while (p + match_len < end && match[match_len] == p[match_len]) {
        ++match_len;
      }
      EmitSequence(anchor, p - anchor, static_cast<size_t>(p - match), match_len, out);
      p += match_len;
      anchor = p;
    }
    EmitSequence(anchor, end - anchor, 0, 0, out);  // tail literals
  }

  bool Decompress(const uint8_t* data, size_t size, uint8_t* raw,
                  size_t raw_size) const override {
    const uint8_t* p = data;
    const uint8_t* const end = data + size;
    uint8_t* q = raw;
    uint8_t* const q_end = raw + raw_size;
    while (p < end) {
      const uint8_t token = *p++;
      size_t literal_len = token >> 4;
      if (literal_len == 15) {
        size_t extra = 0;
        if (!ReadLength(&p, end, &extra)) {
          return false;
        }
        literal_len += extra;
      }
      if (literal_len > static_cast<size_t>(end - p) ||
          literal_len > static_cast<size_t>(q_end - q)) {
        return false;
      }
      if (literal_len > 0) {  // an empty buffer's `raw` may be null
        std::memcpy(q, p, literal_len);
      }
      p += literal_len;
      q += literal_len;
      if (p == end) {
        break;  // final sequence: literals only
      }
      if (end - p < 2) {
        return false;
      }
      const size_t offset = static_cast<size_t>(p[0]) | (static_cast<size_t>(p[1]) << 8);
      p += 2;
      size_t match_len = (token & 0xf) + kLzMinMatch;
      if ((token & 0xf) == 15) {
        size_t extra = 0;
        if (!ReadLength(&p, end, &extra)) {
          return false;
        }
        match_len += extra;
      }
      if (offset == 0 || offset > static_cast<size_t>(q - raw) ||
          match_len > static_cast<size_t>(q_end - q)) {
        return false;
      }
      const uint8_t* src = q - offset;
      if (offset >= match_len) {
        std::memcpy(q, src, match_len);  // disjoint
      } else if (offset >= 8) {
        // Overlapping but by at least 8: each 8-byte block only reads
        // bytes written before the block started.
        size_t i = 0;
        for (; i + 8 <= match_len; i += 8) {
          std::memcpy(q + i, src + i, 8);
        }
        for (; i < match_len; ++i) {
          q[i] = src[i];
        }
      } else {
        for (size_t i = 0; i < match_len; ++i) {  // tight overlap: byte-wise
          q[i] = src[i];
        }
      }
      q += match_len;
    }
    return q == q_end;
  }

 private:
  static void EmitSequence(const uint8_t* literals, size_t literal_len, size_t offset,
                           size_t match_len, std::vector<uint8_t>* out) {
    const size_t lit_nibble = literal_len < 15 ? literal_len : 15;
    const size_t match_extra = match_len >= kLzMinMatch ? match_len - kLzMinMatch : 0;
    const size_t match_nibble = match_len == 0 ? 0 : (match_extra < 15 ? match_extra : 15);
    out->push_back(static_cast<uint8_t>((lit_nibble << 4) | match_nibble));
    if (lit_nibble == 15) {
      LzPutLength(literal_len - 15, out);
    }
    out->insert(out->end(), literals, literals + literal_len);
    if (match_len == 0) {
      return;  // tail
    }
    out->push_back(static_cast<uint8_t>(offset));
    out->push_back(static_cast<uint8_t>(offset >> 8));
    if (match_nibble == 15) {
      LzPutLength(match_extra - 15, out);
    }
  }

  // Reads a 255-terminated length extension (the sum of its bytes).
  static bool ReadLength(const uint8_t** p, const uint8_t* end, size_t* len) {
    *len = 0;
    while (*p < end) {
      const uint8_t byte = *(*p)++;
      *len += byte;
      if (byte != 255) {
        return true;
      }
    }
    return false;
  }
};

const TempoLzCodec kTempoLzCodec;

}  // namespace

const BlockCodec* GetBlockCodec(BlockCodecId id) {
  switch (id) {
    case BlockCodecId::kNone:
      return nullptr;  // identity: callers use the bytes as-is
    case BlockCodecId::kTempoLz:
      return &kTempoLzCodec;
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// Whole-chunk encode/decode.
//
// Chunk layout: u8 block codec id, u32 raw stripe-blob bytes, u32 stored
// bytes, then the (possibly compressed) stripe blob. The blob is ten
// stripes in field order, each "u8 stripe codec, u32 length, payload".

namespace {

constexpr size_t kV3FieldCount = 10;
constexpr size_t kV3ChunkHeader = 1 + 4 + 4;
constexpr uint8_t kMaxStripeCodec = static_cast<uint8_t>(StripeCodec::kRle);

}  // namespace

void EncodeV3Chunk(std::span<const TraceRecord> records, BlockCodecId block_codec,
                   V3EncodeScratch* scratch, std::vector<uint8_t>* out, ChunkZone* zone) {
  // Columnar lanes, in the field order the decoder expects. Expiry is
  // quantised to 1.024 us exactly as the v2 row codec does, so the two
  // formats decode to identical records.
  const size_t n = records.size();
  uint64_t* lanes[kV3FieldCount];
  for (size_t f = 0; f < kV3FieldCount; ++f) {
    scratch->lanes[f].resize(n);
    lanes[f] = scratch->lanes[f].data();
  }
  ChunkZone z;
  z.valid = true;
  z.min_timestamp = records.empty() ? 0 : records.front().timestamp;
  z.max_timestamp = z.min_timestamp;
  for (size_t i = 0; i < n; ++i) {
    const TraceRecord& r = records[i];
    lanes[0][i] = static_cast<uint64_t>(r.timestamp);
    lanes[1][i] = r.timer;
    lanes[2][i] = static_cast<uint64_t>(r.timeout);
    lanes[3][i] = static_cast<uint64_t>(r.expiry) >> 10;
    lanes[4][i] = r.callsite;
    lanes[5][i] = r.stack;
    lanes[6][i] = static_cast<uint16_t>(static_cast<int16_t>(r.pid));
    lanes[7][i] = static_cast<uint16_t>(static_cast<int16_t>(r.tid));
    lanes[8][i] = static_cast<uint8_t>(r.op);
    lanes[9][i] = r.flags;
    ZoneStep(r, &z);
  }

  // Without a block codec the stripes go straight into `out` behind a
  // header patched once their length is known; with one, they collect in
  // the scratch blob, which is compressed into `out` and kept only when
  // compression actually shrinks it.
  const BlockCodec* codec = GetBlockCodec(block_codec);
  const size_t header_at = out->size();
  out->resize(header_at + kV3ChunkHeader);
  std::vector<uint8_t>* blob = out;
  if (codec != nullptr) {
    scratch->blob.clear();
    blob = &scratch->blob;
  }
  const size_t blob_at = blob->size();
  for (size_t f = 0; f < kV3FieldCount; ++f) {
    const size_t stripe_at = blob->size();
    blob->resize(stripe_at + 5);
    const StripeCodec stripe_codec =
        EncodeStripeBest(std::span<const uint64_t>(lanes[f], n), scratch, blob);
    (*blob)[stripe_at] = static_cast<uint8_t>(stripe_codec);
    wire::Store32(static_cast<uint32_t>(blob->size() - stripe_at - 5),
                  blob->data() + stripe_at + 1);
  }
  const size_t blob_size = blob->size() - blob_at;

  BlockCodecId used = BlockCodecId::kNone;
  if (codec != nullptr) {
    codec->Compress(blob->data(), blob_size, out);
    if (out->size() - header_at - kV3ChunkHeader < blob_size) {
      used = block_codec;
    } else {
      out->resize(header_at + kV3ChunkHeader);
      out->insert(out->end(), blob->begin(), blob->end());
    }
  }
  uint8_t* header = out->data() + header_at;
  header[0] = static_cast<uint8_t>(used);
  wire::Store32(static_cast<uint32_t>(blob_size), header + 1);
  wire::Store32(static_cast<uint32_t>(out->size() - header_at - kV3ChunkHeader), header + 5);
  if (zone != nullptr) {
    *zone = z;
  }
}

ChunkParse DecodeV3Chunk(const uint8_t* data, size_t size, uint32_t expected_records,
                         V3DecodeScratch* scratch, std::vector<TraceRecord>* out,
                         uint16_t field_mask, bool recycle_rows,
                         uint64_t callsite_count, ChunkZone* zone) {
  if (size < kV3ChunkHeader) {
    return ChunkParse::kTruncated;
  }
  const uint8_t block_id = data[0];
  const uint32_t raw_bytes = wire::Get32(data + 1);
  const uint32_t stored_bytes = wire::Get32(data + 5);
  if (kV3ChunkHeader + uint64_t{stored_bytes} > size) {
    return ChunkParse::kTruncated;
  }
  if (kV3ChunkHeader + uint64_t{stored_bytes} != size) {
    return ChunkParse::kCorrupt;
  }

  const uint8_t* blob = data + kV3ChunkHeader;
  size_t blob_size = stored_bytes;
  if (block_id != static_cast<uint8_t>(BlockCodecId::kNone)) {
    const BlockCodec* codec = GetBlockCodec(static_cast<BlockCodecId>(block_id));
    if (codec == nullptr) {
      return ChunkParse::kCodec;
    }
    scratch->raw.resize(raw_bytes);
    if (!codec->Decompress(blob, blob_size, scratch->raw.data(), raw_bytes)) {
      return ChunkParse::kCorrupt;
    }
    blob = scratch->raw.data();
    blob_size = raw_bytes;
  } else if (raw_bytes != stored_bytes) {
    return ChunkParse::kCorrupt;
  }

  const uint8_t* p = blob;
  const uint8_t* const end = blob + blob_size;
  for (size_t f = 0; f < kV3FieldCount; ++f) {
    if (end - p < 5) {
      return ChunkParse::kTruncated;
    }
    const uint8_t stripe_codec = p[0];
    const uint32_t stripe_len = wire::Get32(p + 1);
    p += 5;
    if (stripe_codec > kMaxStripeCodec) {
      return ChunkParse::kCodec;
    }
    if (stripe_len > static_cast<size_t>(end - p)) {
      return ChunkParse::kTruncated;
    }
    if ((field_mask & (1u << f)) != 0) {
      const ChunkParse parsed =
          DecodeStripe(static_cast<StripeCodec>(stripe_codec), p, stripe_len,
                       expected_records, &scratch->lanes[f]);
      if (parsed != ChunkParse::kOk) {
        return parsed;
      }
    }
    p += stripe_len;
  }
  if (p != end) {
    return ChunkParse::kCorrupt;
  }

  // Row transpose with lane-width and call-site validation, and the zone,
  // folded in: the checks accumulate branchlessly and the partial rows are
  // dropped again on a bad chunk, so the common path stays a single pass
  // over the lanes. resize() default-initialises the new rows, which is
  // what unprojected fields are specified to hold; recycled rows hold
  // those defaults already (the caller's contract), so the pass is skipped.
  const size_t base =
      recycle_rows ? out->size() - expected_records : out->size();
  if (!recycle_rows) {
    out->resize(base + expected_records);
  }
  TraceRecord* rows = out->data() + base;
  uint64_t overflow = 0;
  uint64_t op_bad = 0;
  ChunkZone z;
  if (expected_records > 0 && (field_mask & kFieldTimestamp) != 0) {
    z.min_timestamp = z.max_timestamp = static_cast<SimTime>(scratch->lanes[0][0]);
  }
  if (field_mask == kAllTraceFields) {
    for (size_t i = 0; i < expected_records; ++i) {
      TraceRecord& r = rows[i];
      r.timestamp = static_cast<SimTime>(scratch->lanes[0][i]);
      r.timer = scratch->lanes[1][i];
      r.timeout = static_cast<SimDuration>(scratch->lanes[2][i]);
      r.expiry = static_cast<SimTime>(scratch->lanes[3][i] << 10);
      r.callsite = static_cast<CallsiteId>(scratch->lanes[4][i]);
      r.stack = static_cast<StackId>(scratch->lanes[5][i]);
      r.pid = static_cast<Pid>(static_cast<int16_t>(static_cast<uint16_t>(scratch->lanes[6][i])));
      r.tid = static_cast<Tid>(static_cast<int16_t>(static_cast<uint16_t>(scratch->lanes[7][i])));
      r.op = static_cast<TimerOp>(static_cast<uint8_t>(scratch->lanes[8][i]));
      r.flags = static_cast<uint16_t>(scratch->lanes[9][i]);
      overflow |= scratch->lanes[4][i] >= callsite_count ? 1 : 0;
      overflow |= scratch->lanes[5][i] >> 32;
      overflow |= (scratch->lanes[6][i] | scratch->lanes[7][i] | scratch->lanes[9][i]) >> 16;
      op_bad |= scratch->lanes[8][i] > static_cast<uint8_t>(TimerOp::kUnblock) ? 1 : 0;
      ZoneStep(r, &z);
    }
  } else {
    // Projected transpose: one tight loop per selected lane, so the cost
    // scales with the fields asked for; skipped lanes (stale scratch) are
    // never read and untouched fields keep their defaults.
    const size_t n = expected_records;
    if ((field_mask & kFieldTimestamp) != 0) {
      const uint64_t* lane = scratch->lanes[0].data();
      for (size_t i = 0; i < n; ++i) {
        rows[i].timestamp = static_cast<SimTime>(lane[i]);
        z.AddTimestamp(rows[i].timestamp);
      }
    }
    if ((field_mask & kFieldTimer) != 0) {
      const uint64_t* lane = scratch->lanes[1].data();
      for (size_t i = 0; i < n; ++i) {
        rows[i].timer = lane[i];
      }
    }
    if ((field_mask & kFieldTimeout) != 0) {
      const uint64_t* lane = scratch->lanes[2].data();
      for (size_t i = 0; i < n; ++i) {
        rows[i].timeout = static_cast<SimDuration>(lane[i]);
      }
    }
    if ((field_mask & kFieldExpiry) != 0) {
      const uint64_t* lane = scratch->lanes[3].data();
      for (size_t i = 0; i < n; ++i) {
        rows[i].expiry = static_cast<SimTime>(lane[i] << 10);
      }
    }
    if ((field_mask & kFieldCallsite) != 0) {
      const uint64_t* lane = scratch->lanes[4].data();
      for (size_t i = 0; i < n; ++i) {
        rows[i].callsite = static_cast<CallsiteId>(lane[i]);
        overflow |= lane[i] >= callsite_count ? 1 : 0;
      }
    }
    if ((field_mask & kFieldStack) != 0) {
      const uint64_t* lane = scratch->lanes[5].data();
      for (size_t i = 0; i < n; ++i) {
        rows[i].stack = static_cast<StackId>(lane[i]);
        overflow |= lane[i] >> 32;
      }
    }
    if ((field_mask & kFieldPid) != 0) {
      const uint64_t* lane = scratch->lanes[6].data();
      for (size_t i = 0; i < n; ++i) {
        rows[i].pid = static_cast<Pid>(static_cast<int16_t>(static_cast<uint16_t>(lane[i])));
        overflow |= lane[i] >> 16;
        z.AddPid(rows[i].pid);
      }
    }
    if ((field_mask & kFieldTid) != 0) {
      const uint64_t* lane = scratch->lanes[7].data();
      for (size_t i = 0; i < n; ++i) {
        rows[i].tid = static_cast<Tid>(static_cast<int16_t>(static_cast<uint16_t>(lane[i])));
        overflow |= lane[i] >> 16;
      }
    }
    if ((field_mask & kFieldOp) != 0) {
      const uint64_t* lane = scratch->lanes[8].data();
      for (size_t i = 0; i < n; ++i) {
        rows[i].op = static_cast<TimerOp>(static_cast<uint8_t>(lane[i]));
        op_bad |= lane[i] > static_cast<uint8_t>(TimerOp::kUnblock) ? 1 : 0;
        z.AddOp(rows[i].op);
      }
    }
    if ((field_mask & kFieldFlags) != 0) {
      const uint64_t* lane = scratch->lanes[9].data();
      for (size_t i = 0; i < n; ++i) {
        rows[i].flags = static_cast<uint16_t>(lane[i]);
        overflow |= lane[i] >> 16;
      }
    }
  }
  if (overflow != 0 || op_bad != 0) {
    out->resize(base);
    return ChunkParse::kCorrupt;
  }
  if (zone != nullptr) {
    *zone = z;
  }
  return ChunkParse::kOk;
}

std::string FormatRecord(const TraceRecord& record, const CallsiteRegistry& callsites) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), "%12.6f %-7s timer=%llu pid=%d tid=%d timeout=%s %s%s%s%s[%s]",
                ToSeconds(record.timestamp), TimerOpName(record.op),
                static_cast<unsigned long long>(record.timer), record.pid, record.tid,
                FormatDuration(record.timeout).c_str(), record.is_user() ? "user " : "kernel ",
                (record.flags & kFlagDeferrable) ? "deferrable " : "",
                (record.flags & kFlagRounded) ? "rounded " : "",
                (record.flags & kFlagWaitSatisfied) ? "satisfied " : "",
                callsites.Name(record.callsite).c_str());
  return buf;
}

}  // namespace tempo

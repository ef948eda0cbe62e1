#include "src/trace/file.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <span>

#include "src/trace/wire.h"

namespace tempo {

namespace {

constexpr const char* kMagic = wire::kTraceMagic;
constexpr const char* kIndexMagic = wire::kTraceIndexMagic;
constexpr size_t kMagicSize = sizeof(wire::kTraceMagic);

std::nullopt_t Fail(TraceReadError reason, TraceReadError* error) {
  if (error != nullptr) {
    *error = reason;
  }
  return std::nullopt;
}

// Number of chunks a v2 payload of `records` at `capacity` occupies.
uint64_t ChunkCountFor(uint64_t records, uint32_t capacity) {
  return (records + capacity - 1) / capacity;
}

void SerializeV1(const std::vector<TraceRecord>& records,
                 std::vector<uint8_t>* out) {
  wire::Put64(records.size(), out);
  for (const TraceRecord& record : records) {
    EncodeRecord(record, out);
  }
}

void SerializeV2(const std::vector<TraceRecord>& records, uint32_t capacity,
                 std::vector<uint8_t>* out) {
  wire::Put64(records.size(), out);
  wire::Put32(capacity, out);

  const uint64_t chunk_count = ChunkCountFor(records.size(), capacity);
  std::vector<std::pair<uint64_t, uint32_t>> index;  // (offset, record count)
  index.reserve(chunk_count);
  size_t next = 0;
  while (next < records.size()) {
    const size_t take = std::min<size_t>(capacity, records.size() - next);
    index.emplace_back(out->size(), static_cast<uint32_t>(take));
    for (size_t i = 0; i < take; ++i) {
      EncodeRecord(records[next + i], out);
    }
    next += take;
  }

  const uint64_t index_offset = out->size();
  wire::Put32(static_cast<uint32_t>(chunk_count), out);
  for (const auto& [offset, count] : index) {
    wire::Put64(offset, out);
    wire::Put32(count, out);
  }
  wire::Put64(index_offset, out);
  out->insert(out->end(), kIndexMagic, kIndexMagic + kMagicSize);
}

// One v3 index-footer entry (offset, stored bytes, record count, zone).
constexpr size_t kV3IndexEntrySize = 8 + 4 + 4 + 8 + 8 + 8 + 1;

void PutV3IndexEntry(uint64_t offset, uint32_t stored, uint32_t records,
                     const ChunkZone& zone, std::vector<uint8_t>* out) {
  wire::Put64(offset, out);
  wire::Put32(stored, out);
  wire::Put32(records, out);
  wire::Put64(static_cast<uint64_t>(zone.min_timestamp), out);
  wire::Put64(static_cast<uint64_t>(zone.max_timestamp), out);
  wire::Put64(zone.pid_digest, out);
  out->push_back(zone.op_mask);
}

// The zone EncodeV3Chunk would have produced for `records` — used to
// cross-check a parsed footer against the chunks it claims to describe.
ChunkZone ZoneOf(std::span<const TraceRecord> records) {
  ChunkZone zone;
  zone.valid = true;
  zone.min_timestamp = records.empty() ? 0 : records.front().timestamp;
  zone.max_timestamp = zone.min_timestamp;
  for (const TraceRecord& r : records) {
    zone.min_timestamp = std::min(zone.min_timestamp, r.timestamp);
    zone.max_timestamp = std::max(zone.max_timestamp, r.timestamp);
    zone.pid_digest |= PidDigestBit(r.pid);
    zone.op_mask |= static_cast<uint8_t>(1u << static_cast<uint8_t>(r.op));
  }
  return zone;
}

TraceReadError ChunkParseError(ChunkParse parse) {
  switch (parse) {
    case ChunkParse::kOk:
      break;
    case ChunkParse::kTruncated:
      return TraceReadError::kTruncated;
    case ChunkParse::kCorrupt:
      return TraceReadError::kCorrupt;
    case ChunkParse::kCodec:
      return TraceReadError::kCodec;
  }
  return TraceReadError::kCorrupt;
}

void SerializeV3(const std::vector<TraceRecord>& records, uint32_t capacity,
                 BlockCodecId block_codec, std::vector<uint8_t>* out) {
  wire::Put64(records.size(), out);
  wire::Put32(capacity, out);

  struct Entry {
    uint64_t offset;
    uint32_t stored;
    uint32_t records;
    ChunkZone zone;
  };
  std::vector<Entry> index;
  index.reserve(ChunkCountFor(records.size(), capacity));
  V3EncodeScratch scratch;
  size_t next = 0;
  while (next < records.size()) {
    const size_t take = std::min<size_t>(capacity, records.size() - next);
    Entry entry;
    entry.offset = out->size();
    entry.records = static_cast<uint32_t>(take);
    EncodeV3Chunk(std::span<const TraceRecord>(records.data() + next, take),
                  block_codec, &scratch, out, &entry.zone);
    entry.stored = static_cast<uint32_t>(out->size() - entry.offset);
    index.push_back(entry);
    next += take;
  }

  const uint64_t index_offset = out->size();
  wire::Put32(static_cast<uint32_t>(index.size()), out);
  for (const Entry& entry : index) {
    PutV3IndexEntry(entry.offset, entry.stored, entry.records, entry.zone, out);
  }
  wire::Put64(index_offset, out);
  out->insert(out->end(), kIndexMagic, kIndexMagic + kMagicSize);
}

std::optional<LoadedTrace> DeserializeV3(wire::Reader* reader, size_t total_bytes,
                                         TraceReadError* error) {
  LoadedTrace trace;
  switch (wire::ReadCallsiteTable(reader, &trace.callsites)) {
    case wire::TableParse::kOk:
      break;
    case wire::TableParse::kTruncated:
      return Fail(TraceReadError::kTruncated, error);
    case wire::TableParse::kCorrupt:
      return Fail(TraceReadError::kCorrupt, error);
  }

  uint64_t record_count = 0;
  uint32_t capacity = 0;
  if (!reader->Read64(&record_count) || !reader->Read32(&capacity)) {
    return Fail(TraceReadError::kTruncated, error);
  }
  if (capacity == 0) {
    return Fail(TraceReadError::kCorrupt, error);
  }
  // Even at the best possible compression a record needs a varint index or
  // run share; one chunk of n records cannot be smaller than n bits. The
  // cheap sanity bound below only guards the reserve from a hostile count.
  if (record_count > total_bytes * 64) {
    return Fail(TraceReadError::kTruncated, error);
  }

  const uint64_t chunk_count = ChunkCountFor(record_count, capacity);
  struct Entry {
    uint64_t offset;
    uint32_t stored;
    uint32_t records;
    ChunkZone zone;
  };
  std::vector<Entry> decoded_index;
  decoded_index.reserve(chunk_count);
  trace.records.reserve(record_count);
  V3DecodeScratch scratch;
  for (uint64_t c = 0; c < chunk_count; ++c) {
    const uint32_t expected =
        c + 1 < chunk_count || record_count % capacity == 0
            ? capacity
            : static_cast<uint32_t>(record_count % capacity);
    Entry entry;
    entry.offset = reader->offset();
    entry.records = expected;
    // Peek the chunk header for the stored size, then hand the exact span
    // to the chunk decoder.
    const uint8_t* head = reader->Raw(9);
    if (head == nullptr) {
      return Fail(TraceReadError::kTruncated, error);
    }
    const uint32_t stored = wire::Get32(head + 5);
    if (reader->Raw(stored) == nullptr) {
      return Fail(TraceReadError::kTruncated, error);
    }
    entry.stored = 9 + stored;
    const size_t before = trace.records.size();
    const ChunkParse parse =
        DecodeV3Chunk(head, entry.stored, expected, &scratch, &trace.records);
    if (parse != ChunkParse::kOk) {
      return Fail(ChunkParseError(parse), error);
    }
    entry.zone = ZoneOf(std::span<const TraceRecord>(trace.records.data() + before,
                                                     expected));
    for (size_t i = before; i < trace.records.size(); ++i) {
      trace.records[i].stack = kEmptyStack;
    }
    decoded_index.push_back(entry);
  }

  // Index footer: every entry must agree with the chunks just decoded.
  const uint64_t index_offset = reader->offset();
  uint32_t indexed_chunks = 0;
  if (!reader->Read32(&indexed_chunks)) {
    return Fail(TraceReadError::kTruncated, error);
  }
  if (indexed_chunks != chunk_count) {
    return Fail(TraceReadError::kCorrupt, error);
  }
  for (uint64_t c = 0; c < chunk_count; ++c) {
    uint64_t offset = 0;
    uint32_t stored = 0;
    uint32_t count = 0;
    uint64_t min_ts = 0;
    uint64_t max_ts = 0;
    uint64_t digest = 0;
    if (!reader->Read64(&offset) || !reader->Read32(&stored) || !reader->Read32(&count) ||
        !reader->Read64(&min_ts) || !reader->Read64(&max_ts) || !reader->Read64(&digest)) {
      return Fail(TraceReadError::kTruncated, error);
    }
    const uint8_t* op_mask = reader->Raw(1);
    if (op_mask == nullptr) {
      return Fail(TraceReadError::kTruncated, error);
    }
    const Entry& entry = decoded_index[c];
    if (offset != entry.offset || stored != entry.stored || count != entry.records ||
        static_cast<SimTime>(min_ts) != entry.zone.min_timestamp ||
        static_cast<SimTime>(max_ts) != entry.zone.max_timestamp ||
        digest != entry.zone.pid_digest || *op_mask != entry.zone.op_mask) {
      return Fail(TraceReadError::kCorrupt, error);
    }
  }
  uint64_t stated_index_offset = 0;
  if (!reader->Read64(&stated_index_offset)) {
    return Fail(TraceReadError::kTruncated, error);
  }
  if (stated_index_offset != index_offset) {
    return Fail(TraceReadError::kCorrupt, error);
  }
  const uint8_t* trailer = reader->Raw(kMagicSize);
  if (trailer == nullptr) {
    return Fail(TraceReadError::kTruncated, error);
  }
  if (std::memcmp(trailer, kIndexMagic, kMagicSize) != 0) {
    return Fail(TraceReadError::kCorrupt, error);
  }
  return trace;
}

std::optional<LoadedTrace> DeserializeV1(wire::Reader* reader, size_t total_bytes,
                                         TraceReadError* error) {
  LoadedTrace trace;
  switch (wire::ReadCallsiteTable(reader, &trace.callsites)) {
    case wire::TableParse::kOk:
      break;
    case wire::TableParse::kTruncated:
      return Fail(TraceReadError::kTruncated, error);
    case wire::TableParse::kCorrupt:
      return Fail(TraceReadError::kCorrupt, error);
  }

  uint64_t record_count = 0;
  if (!reader->Read64(&record_count)) {
    return Fail(TraceReadError::kTruncated, error);
  }
  // A corrupt count must not drive a huge allocation: the payload cannot
  // hold more records than its remaining bytes.
  if (record_count > total_bytes / kEncodedRecordSize) {
    return Fail(TraceReadError::kTruncated, error);
  }
  trace.records.reserve(record_count);
  for (uint64_t i = 0; i < record_count; ++i) {
    const uint8_t* raw = reader->Raw(kEncodedRecordSize);
    if (raw == nullptr) {
      return Fail(TraceReadError::kTruncated, error);
    }
    auto record = DecodeRecord(raw);
    if (!record.has_value()) {
      return Fail(TraceReadError::kCorrupt, error);
    }
    // Stacks are not persisted; chains can be rebuilt from call-site
    // parents via CallsiteRegistry::Chain.
    record->stack = kEmptyStack;
    trace.records.push_back(*record);
  }
  return trace;
}

std::optional<LoadedTrace> DeserializeV2(wire::Reader* reader, size_t total_bytes,
                                         TraceReadError* error) {
  LoadedTrace trace;
  switch (wire::ReadCallsiteTable(reader, &trace.callsites)) {
    case wire::TableParse::kOk:
      break;
    case wire::TableParse::kTruncated:
      return Fail(TraceReadError::kTruncated, error);
    case wire::TableParse::kCorrupt:
      return Fail(TraceReadError::kCorrupt, error);
  }

  uint64_t record_count = 0;
  uint32_t capacity = 0;
  if (!reader->Read64(&record_count) || !reader->Read32(&capacity)) {
    return Fail(TraceReadError::kTruncated, error);
  }
  if (capacity == 0) {
    return Fail(TraceReadError::kCorrupt, error);
  }
  if (record_count > total_bytes / kEncodedRecordSize) {
    return Fail(TraceReadError::kTruncated, error);
  }

  // Chunk payloads are contiguous, so the records decode sequentially; the
  // index is then validated against where the chunks actually landed.
  const uint64_t chunk_count = ChunkCountFor(record_count, capacity);
  std::vector<uint64_t> chunk_offsets;
  chunk_offsets.reserve(chunk_count);
  trace.records.reserve(record_count);
  for (uint64_t i = 0; i < record_count; ++i) {
    if (i % capacity == 0) {
      chunk_offsets.push_back(reader->offset());
    }
    const uint8_t* raw = reader->Raw(kEncodedRecordSize);
    if (raw == nullptr) {
      return Fail(TraceReadError::kTruncated, error);
    }
    auto record = DecodeRecord(raw);
    if (!record.has_value()) {
      return Fail(TraceReadError::kCorrupt, error);
    }
    record->stack = kEmptyStack;
    trace.records.push_back(*record);
  }

  // Index footer: every entry must agree with the header-derived layout.
  const uint64_t index_offset = reader->offset();
  uint32_t indexed_chunks = 0;
  if (!reader->Read32(&indexed_chunks)) {
    return Fail(TraceReadError::kTruncated, error);
  }
  if (indexed_chunks != chunk_count) {
    return Fail(TraceReadError::kCorrupt, error);
  }
  for (uint64_t c = 0; c < chunk_count; ++c) {
    uint64_t offset = 0;
    uint32_t count = 0;
    if (!reader->Read64(&offset) || !reader->Read32(&count)) {
      return Fail(TraceReadError::kTruncated, error);
    }
    const uint32_t expected_count =
        c + 1 < chunk_count || record_count % capacity == 0
            ? capacity
            : static_cast<uint32_t>(record_count % capacity);
    if (offset != chunk_offsets[c] || count != expected_count) {
      return Fail(TraceReadError::kCorrupt, error);
    }
  }
  uint64_t stated_index_offset = 0;
  if (!reader->Read64(&stated_index_offset)) {
    return Fail(TraceReadError::kTruncated, error);
  }
  if (stated_index_offset != index_offset) {
    return Fail(TraceReadError::kCorrupt, error);
  }
  const uint8_t* trailer = reader->Raw(kMagicSize);
  if (trailer == nullptr) {
    return Fail(TraceReadError::kTruncated, error);
  }
  if (std::memcmp(trailer, kIndexMagic, kMagicSize) != 0) {
    return Fail(TraceReadError::kCorrupt, error);
  }
  return trace;
}

}  // namespace

const char* TraceReadErrorName(TraceReadError error) {
  switch (error) {
    case TraceReadError::kIo:
      return "cannot open or read file";
    case TraceReadError::kMagic:
      return "not a tempo trace (bad magic)";
    case TraceReadError::kVersion:
      return "unsupported trace format version";
    case TraceReadError::kTruncated:
      return "truncated file";
    case TraceReadError::kCorrupt:
      return "corrupt content";
    case TraceReadError::kCodec:
      return "unknown chunk codec (file from a newer writer?)";
  }
  return "?";
}

std::vector<uint8_t> SerializeTrace(const std::vector<TraceRecord>& records,
                                    const CallsiteRegistry& callsites,
                                    const TraceWriteOptions& options) {
  std::vector<uint8_t> out;
  out.reserve(64 + records.size() * kEncodedRecordSize);
  out.resize(kMagicSize);
  std::memcpy(out.data(), kMagic, kMagicSize);
  wire::Put32(options.version, &out);
  wire::PutCallsiteTable(callsites, &out);
  if (options.version == kTraceFileVersion) {
    SerializeV1(records, &out);
  } else if (options.version == kTraceFileVersionColumnar) {
    const uint32_t capacity = options.chunk_records > 0 ? options.chunk_records : 1;
    SerializeV3(records, capacity, options.block_codec, &out);
  } else {
    const uint32_t capacity = options.chunk_records > 0 ? options.chunk_records : 1;
    SerializeV2(records, capacity, &out);
  }
  return out;
}

std::optional<LoadedTrace> DeserializeTrace(const std::vector<uint8_t>& bytes,
                                            TraceReadError* error) {
  wire::Reader reader(bytes);
  const uint8_t* magic = reader.Raw(kMagicSize);
  if (magic == nullptr || std::memcmp(magic, kMagic, kMagicSize) != 0) {
    return Fail(TraceReadError::kMagic, error);
  }
  uint32_t version = 0;
  if (!reader.Read32(&version)) {
    return Fail(TraceReadError::kTruncated, error);
  }
  if (version == kTraceFileVersion) {
    return DeserializeV1(&reader, bytes.size(), error);
  }
  if (version == kTraceFileVersionChunked) {
    return DeserializeV2(&reader, bytes.size(), error);
  }
  if (version == kTraceFileVersionColumnar) {
    return DeserializeV3(&reader, bytes.size(), error);
  }
  return Fail(TraceReadError::kVersion, error);
}

bool WriteTraceFile(const std::string& path, const std::vector<TraceRecord>& records,
                    const CallsiteRegistry& callsites,
                    const TraceWriteOptions& options) {
  const std::vector<uint8_t> bytes = SerializeTrace(records, callsites, options);
  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) {
    return false;
  }
  const size_t written = std::fwrite(bytes.data(), 1, bytes.size(), file);
  const bool ok = std::fclose(file) == 0 && written == bytes.size();
  return ok;
}

std::optional<LoadedTrace> ReadTraceFile(const std::string& path,
                                         TraceReadError* error) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) {
    return Fail(TraceReadError::kIo, error);
  }
  std::vector<uint8_t> bytes;
  uint8_t buffer[1 << 16];
  size_t n = 0;
  while ((n = std::fread(buffer, 1, sizeof(buffer), file)) > 0) {
    bytes.insert(bytes.end(), buffer, buffer + n);
  }
  std::fclose(file);
  return DeserializeTrace(bytes, error);
}

}  // namespace tempo

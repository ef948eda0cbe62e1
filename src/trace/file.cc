#include "src/trace/file.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>

#include "src/trace/chunked.h"
#include "src/trace/wire.h"

namespace tempo {

namespace {

constexpr size_t kMagicSize = sizeof(wire::kTraceMagic);

std::nullopt_t Fail(TraceReadError reason, TraceReadError* error) {
  if (error != nullptr) {
    *error = reason;
  }
  return std::nullopt;
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

// Decodes every chunk of `reader` into one trace. A cursor reads one chunk
// at a time and trusts its index entry; a whole-trace load also checks
// each v3 zone against the records it summarizes.
std::optional<LoadedTrace> Collect(const TraceChunkReader& reader, TraceReadError* error) {
  LoadedTrace trace;
  trace.callsites = reader.callsites();
  trace.records.reserve(reader.record_count());
  TraceChunkReader::Cursor cursor = reader.MakeCursor();
  for (size_t i = 0; i < reader.chunk_count(); ++i) {
    const std::span<const TraceRecord> chunk = cursor.Read(i);
    if (!cursor.ok()) {
      return Fail(cursor.error(), error);
    }
    const ChunkZone& zone = reader.chunk(i).zone;
    if (zone.valid && ZoneOf(chunk) != zone) {
      return Fail(TraceReadError::kCorrupt, error);
    }
    trace.records.insert(trace.records.end(), chunk.begin(), chunk.end());
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

void PutTraceHeader(uint32_t version, const CallsiteRegistry& callsites, uint64_t records,
                    uint32_t chunk_records, std::vector<uint8_t>* out) {
  out->insert(out->end(), wire::kTraceMagic, wire::kTraceMagic + kMagicSize);
  wire::Put32(version, out);
  wire::PutCallsiteTable(callsites, out);
  wire::Put64(records, out);
  if (version != kTraceFileVersion) {
    wire::Put32(chunk_records, out);
  }
}

void PutTraceIndex(uint32_t version, std::span<const TraceChunkRef> chunks,
                   uint64_t index_offset, std::vector<uint8_t>* out) {
  const bool columnar = version == kTraceFileVersionColumnar;
  wire::Put32(static_cast<uint32_t>(chunks.size()), out);
  for (const TraceChunkRef& chunk : chunks) {
    wire::Put64(chunk.offset, out);
    if (columnar) {
      wire::Put32(static_cast<uint32_t>(chunk.stored_bytes), out);
    }
    wire::Put32(chunk.records, out);
    if (columnar) {
      wire::Put64(static_cast<uint64_t>(chunk.zone.min_timestamp), out);
      wire::Put64(static_cast<uint64_t>(chunk.zone.max_timestamp), out);
      wire::Put64(chunk.zone.pid_digest, out);
      out->push_back(chunk.zone.op_mask);
    }
  }
  wire::Put64(index_offset, out);
  out->insert(out->end(), wire::kTraceIndexMagic, wire::kTraceIndexMagic + kMagicSize);
}

std::vector<uint8_t> SerializeTrace(const std::vector<TraceRecord>& records,
                                    const CallsiteRegistry& callsites,
                                    const TraceWriteOptions& options) {
  const uint32_t capacity = options.chunk_records > 0 ? options.chunk_records : 1;
  std::vector<uint8_t> out;
  out.reserve(64 + records.size() * kEncodedRecordSize);
  PutTraceHeader(options.version, callsites, records.size(), capacity, &out);
  if (options.version == kTraceFileVersion) {
    for (const TraceRecord& record : records) {
      EncodeRecord(record, &out);
    }
    return out;
  }

  std::vector<TraceChunkRef> chunks;
  chunks.reserve((records.size() + capacity - 1) / capacity);
  V3EncodeScratch scratch;
  for (size_t next = 0; next < records.size(); next += capacity) {
    const std::span<const TraceRecord> chunk(
        records.data() + next, std::min<size_t>(capacity, records.size() - next));
    TraceChunkRef ref;
    ref.offset = out.size();
    ref.records = static_cast<uint32_t>(chunk.size());
    if (options.version == kTraceFileVersionColumnar) {
      EncodeV3Chunk(chunk, options.block_codec, &scratch, &out, &ref.zone);
    } else {
      for (const TraceRecord& record : chunk) {
        EncodeRecord(record, &out);
      }
    }
    ref.stored_bytes = out.size() - ref.offset;
    chunks.push_back(ref);
  }
  PutTraceIndex(options.version, chunks, out.size(), &out);
  return out;
}

std::optional<LoadedTrace> DeserializeTrace(const std::vector<uint8_t>& bytes,
                                            TraceReadError* error) {
  // The reader only borrows `bytes`: they outlive the collect below.
  const std::shared_ptr<const uint8_t> borrowed(std::shared_ptr<const uint8_t>(),
                                                bytes.data());
  const auto reader = TraceChunkReader::Parse(borrowed, bytes.size(), error);
  if (!reader.has_value()) {
    return std::nullopt;
  }
  return Collect(*reader, error);
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
  const auto reader = TraceChunkReader::Open(path, error);
  if (!reader.has_value()) {
    return std::nullopt;
  }
  return Collect(*reader, error);
}

}  // namespace tempo

#include "src/trace/file.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>

#include "src/trace/wire.h"

namespace tempo {

namespace {

constexpr size_t kMagicSize = sizeof(wire::kTraceMagic);

// Encodes the file of `records` into `*out`, which starts empty, chunk by
// chunk. With a `file`, `*out` is written out and cleared after each chunk
// and after the index, so the file streams through one chunk's worth of
// memory; without one, `*out` ends up holding the whole file. False on a
// write error.
bool EncodeTrace(const std::vector<TraceRecord>& records, const CallsiteRegistry& callsites,
                 const TraceWriteOptions& options, std::FILE* file, std::vector<uint8_t>* out) {
  auto flush = [file, out] {
    if (file == nullptr) {
      return true;
    }
    const bool ok = std::fwrite(out->data(), 1, out->size(), file) == out->size();
    out->clear();
    return ok;
  };
  const uint32_t capacity = options.chunk_records > 0 ? options.chunk_records : 1;
  PutTraceHeader(options.version, callsites, records.size(), capacity, out);
  uint64_t offset = out->size();
  std::vector<TraceChunkRef> chunks;
  V3EncodeScratch scratch;
  for (size_t next = 0; next < records.size(); next += capacity) {
    const std::span<const TraceRecord> chunk(
        records.data() + next, std::min<size_t>(capacity, records.size() - next));
    chunks.push_back(EncodeTraceChunk(chunk, options, offset, &scratch, out));
    offset += chunks.back().stored_bytes;
    if (!flush()) {
      return false;
    }
  }
  if (options.version != kTraceFileVersion) {
    PutTraceIndex(options.version, chunks, offset, out);
  }
  return flush();
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

TraceChunkRef EncodeTraceChunk(std::span<const TraceRecord> records,
                               const TraceWriteOptions& options, uint64_t offset,
                               V3EncodeScratch* scratch, std::vector<uint8_t>* out) {
  TraceChunkRef ref;
  ref.offset = offset;
  ref.records = static_cast<uint32_t>(records.size());
  const size_t at = out->size();
  if (options.version == kTraceFileVersionColumnar) {
    EncodeV3Chunk(records, options.block_codec, scratch, out, &ref.zone);
  } else {
    EncodeRecords(records, out);
  }
  ref.stored_bytes = out->size() - at;
  return ref;
}

std::vector<uint8_t> SerializeTrace(const std::vector<TraceRecord>& records,
                                    const CallsiteRegistry& callsites,
                                    const TraceWriteOptions& options) {
  std::vector<uint8_t> out;
  out.reserve(64 + records.size() * kEncodedRecordSize);
  EncodeTrace(records, callsites, options, nullptr, &out);
  return out;
}

bool WriteTraceFile(const std::string& path, const std::vector<TraceRecord>& records,
                    const CallsiteRegistry& callsites,
                    const TraceWriteOptions& options) {
  if (options.chunk_records > kMaxChunkRecords) {
    return false;
  }
  // Never leave a half-written trace behind: a failed write or close
  // removes the file, and so does the deleter if encoding throws.
  auto discard = [&path](std::FILE* f) {
    std::fclose(f);
    std::remove(path.c_str());
  };
  std::unique_ptr<std::FILE, decltype(discard)> file(std::fopen(path.c_str(), "wb"), discard);
  if (file == nullptr) {
    return false;
  }
  std::vector<uint8_t> chunk;
  const bool written = EncodeTrace(records, callsites, options, file.get(), &chunk);
  if (std::fclose(file.release()) == 0 && written) {
    return true;
  }
  std::remove(path.c_str());
  return false;
}

}  // namespace tempo

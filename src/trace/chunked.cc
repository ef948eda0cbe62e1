#include "src/trace/chunked.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <thread>

#include "src/trace/wire.h"

namespace tempo {

namespace {

constexpr size_t kMagicSize = sizeof(wire::kTraceMagic);
// Per v2 index entry: u64 chunk offset + u32 record count.
constexpr size_t kIndexEntrySize = 12;
// Per v3 index entry: u64 offset, u32 stored bytes, u32 records, then the
// zone map (u64 min/max timestamp, u64 pid digest, u8 op mask).
constexpr size_t kV3IndexEntrySize = 8 + 4 + 4 + 8 + 8 + 8 + 1;
// v3 chunk header: u8 block codec, u32 raw bytes, u32 stored bytes.
constexpr size_t kV3ChunkHeader = 1 + 4 + 4;

std::nullopt_t Fail(TraceReadError reason, TraceReadError* error) {
  if (error != nullptr) {
    *error = reason;
  }
  return std::nullopt;
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

// True when the index `zone` agrees with `seen`, the zone of the records
// just decoded, in each field of `field_mask` a zone summarizes. A field a
// projection skipped was not decoded, so its part goes unchecked.
bool ZoneAgrees(const ChunkZone& zone, const ChunkZone& seen, uint16_t field_mask) {
  return ((field_mask & kFieldTimestamp) == 0 || (seen.min_timestamp == zone.min_timestamp &&
                                                  seen.max_timestamp == zone.max_timestamp)) &&
         ((field_mask & kFieldPid) == 0 || seen.pid_digest == zone.pid_digest) &&
         ((field_mask & kFieldOp) == 0 || seen.op_mask == zone.op_mask);
}

// The whole file behind `fd`: mapped read-only when the kernel allows it,
// otherwise read into a buffer that `*bytes` owns. False on a read error.
bool LoadFile(int fd, std::shared_ptr<const uint8_t>* bytes, size_t* size, bool* mapped) {
  struct stat st;
  if (::fstat(fd, &st) != 0 || st.st_size < 0) {
    return false;
  }
  *size = static_cast<size_t>(st.st_size);
  const size_t length = *size;
  void* base = length > 0 ? ::mmap(nullptr, length, PROT_READ, MAP_SHARED, fd, 0) : MAP_FAILED;
  *mapped = base != MAP_FAILED;
  if (*mapped) {
    bytes->reset(static_cast<const uint8_t*>(base), [length](const uint8_t* data) {
      ::munmap(const_cast<uint8_t*>(data), length);
    });
    return true;
  }
  auto buffer = std::make_shared<std::vector<uint8_t>>(length);
  for (size_t done = 0; done < length;) {
    const ssize_t n = ::read(fd, buffer->data() + done, length - done);
    if (n < 0 && errno == EINTR) {
      continue;
    }
    if (n <= 0) {
      return false;
    }
    done += static_cast<size_t>(n);
  }
  *bytes = std::shared_ptr<const uint8_t>(buffer, buffer->data());
  return true;
}

}  // namespace

std::optional<TraceChunkReader> TraceChunkReader::Open(const std::string& path,
                                                       TraceReadError* error) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    return Fail(TraceReadError::kIo, error);
  }
  TraceChunkReader reader;
  size_t size = 0;
  const bool loaded = LoadFile(fd, &reader.bytes_, &size, &reader.mapped_);
  ::close(fd);
  if (!loaded) {
    return Fail(TraceReadError::kIo, error);
  }
  wire::Reader parse(reader.bytes_.get(), size);

  const uint8_t* magic = parse.Raw(kMagicSize);
  if (magic == nullptr || std::memcmp(magic, wire::kTraceMagic, kMagicSize) != 0) {
    return Fail(TraceReadError::kMagic, error);
  }
  if (!parse.Read32(&reader.version_)) {
    return Fail(TraceReadError::kTruncated, error);
  }
  const uint32_t version = reader.version_;
  if (version != kTraceFileVersion && version != kTraceFileVersionChunked &&
      version != kTraceFileVersionColumnar) {
    return Fail(TraceReadError::kVersion, error);
  }
  switch (wire::ReadCallsiteTable(&parse, &reader.callsites_)) {
    case wire::TableParse::kOk:
      break;
    case wire::TableParse::kTruncated:
      return Fail(TraceReadError::kTruncated, error);
    case wire::TableParse::kCorrupt:
      return Fail(TraceReadError::kCorrupt, error);
  }
  uint64_t records = 0;
  uint32_t capacity = kDefaultChunkRecords;  // v1 chunks are synthesized at this size
  if (!parse.Read64(&records) ||
      (version != kTraceFileVersion && !parse.Read32(&capacity))) {
    return Fail(TraceReadError::kTruncated, error);
  }
  // Every chunk's decode buffers are sized from its record count, so the
  // capacity is bounded before any chunk is located.
  if (capacity == 0 || capacity > kMaxChunkRecords) {
    return Fail(TraceReadError::kCorrupt, error);
  }
  reader.record_count_ = records;

  // Locate the chunks. Every chunk holds `capacity` records except a
  // shorter final one.
  const uint64_t chunk_count = records / capacity + (records % capacity != 0 ? 1 : 0);
  auto chunk_records = [&](uint64_t c) {
    return c + 1 < chunk_count || records % capacity == 0
               ? capacity
               : static_cast<uint32_t>(records % capacity);
  };
  if (version == kTraceFileVersionColumnar) {
    // A compressed chunk's size does not bound its record count the way
    // fixed-width rows do. No real v3 file packs more than 64 records into
    // a byte, so a larger count is a file cut short of the records it
    // declares.
    if (records > size * 64) {
      return Fail(TraceReadError::kTruncated, error);
    }
    // Variable-sized chunks: walk their headers. A walk that runs past the
    // end of the file is a truncation, wherever the cut fell.
    for (uint64_t c = 0; c < chunk_count; ++c) {
      TraceChunkRef chunk;
      chunk.offset = parse.offset();
      chunk.records = chunk_records(c);
      const uint8_t* head = parse.Raw(kV3ChunkHeader);
      if (head == nullptr || parse.Raw(wire::Get32(head + 5)) == nullptr) {
        return Fail(TraceReadError::kTruncated, error);
      }
      chunk.stored_bytes = parse.offset() - chunk.offset;
      reader.payload_bytes_ += chunk.stored_bytes;
      reader.chunks_.push_back(chunk);
    }
  } else {
    // Fixed-width rows: the layout follows from the header.
    if (records > parse.remaining() / kEncodedRecordSize) {
      return Fail(TraceReadError::kTruncated, error);
    }
    reader.payload_bytes_ = records * kEncodedRecordSize;
    reader.chunks_.reserve(chunk_count);
    for (uint64_t c = 0; c < chunk_count; ++c) {
      TraceChunkRef chunk;
      chunk.offset = parse.offset() + c * capacity * kEncodedRecordSize;
      chunk.records = chunk_records(c);
      chunk.stored_bytes = uint64_t{chunk.records} * kEncodedRecordSize;
      reader.chunks_.push_back(chunk);
    }
    parse.Raw(reader.payload_bytes_);
  }

  // Index footer (v2/v3): one entry per chunk, each restating the chunk
  // just located, then the footer's own offset and the trailer magic.
  if (version != kTraceFileVersion) {
    const uint64_t index_offset = parse.offset();
    const bool columnar = version == kTraceFileVersionColumnar;
    uint32_t indexed = 0;
    if (!parse.Read32(&indexed)) {
      return Fail(TraceReadError::kTruncated, error);
    }
    if (indexed != chunk_count) {
      return Fail(TraceReadError::kCorrupt, error);
    }
    for (TraceChunkRef& chunk : reader.chunks_) {
      const uint8_t* entry = parse.Raw(columnar ? kV3IndexEntrySize : kIndexEntrySize);
      if (entry == nullptr) {
        return Fail(TraceReadError::kTruncated, error);
      }
      uint64_t stored = chunk.stored_bytes;
      uint32_t count = wire::Get32(entry + 8);
      if (columnar) {
        stored = wire::Get32(entry + 8);
        count = wire::Get32(entry + 12);
        chunk.zone.valid = true;
        chunk.zone.min_timestamp = static_cast<SimTime>(wire::Get64(entry + 16));
        chunk.zone.max_timestamp = static_cast<SimTime>(wire::Get64(entry + 24));
        chunk.zone.pid_digest = wire::Get64(entry + 32);
        chunk.zone.op_mask = entry[40];
      }
      if (wire::Get64(entry) != chunk.offset || stored != chunk.stored_bytes ||
          count != chunk.records) {
        return Fail(TraceReadError::kCorrupt, error);
      }
    }
    uint64_t stated_index_offset = 0;
    if (!parse.Read64(&stated_index_offset)) {
      return Fail(TraceReadError::kTruncated, error);
    }
    const uint8_t* trailer = parse.Raw(kMagicSize);
    if (trailer == nullptr) {
      return Fail(TraceReadError::kTruncated, error);
    }
    if (stated_index_offset != index_offset ||
        std::memcmp(trailer, wire::kTraceIndexMagic, kMagicSize) != 0) {
      return Fail(TraceReadError::kCorrupt, error);
    }
  }
  if (parse.remaining() != 0) {
    return Fail(TraceReadError::kCorrupt, error);  // bytes after the declared end
  }
  return reader;
}

std::span<const TraceRecord> TraceChunkReader::Cursor::Fail(TraceReadError error) {
  failed_ = true;
  error_ = error;
  return {};
}

std::span<const TraceRecord> TraceChunkReader::Cursor::Read(size_t index,
                                                            uint16_t field_mask) {
  if (failed_ || index >= reader_->chunks_.size()) {
    failed_ = true;
    return {};
  }
  const TraceChunkRef& chunk = reader_->chunks_[index];
  // Open located every chunk inside the file's bytes.
  const uint8_t* bytes = reader_->bytes_.get() + chunk.offset;
  if (reader_->version_ == kTraceFileVersionColumnar) {
    // Recycle the row buffer when the previous decode left every field
    // outside this mask at its default (same record count, and the
    // previous mask wrote no field this mask won't overwrite) — skips a
    // full re-initialisation pass per chunk.
    const bool recycle = decoded_.size() == chunk.records &&
                         (last_mask_ & ~field_mask) == 0;
    if (!recycle) {
      decoded_.clear();
    }
    // Consumers resolve call-site names through the file's table, so an id
    // past its end fails the chunk rather than index past the registry.
    ChunkZone seen;
    const ChunkParse parse = DecodeV3Chunk(bytes, static_cast<size_t>(chunk.stored_bytes),
                                           chunk.records, &scratch_, &decoded_, field_mask,
                                           recycle, reader_->callsites_.size(), &seen);
    if (parse != ChunkParse::kOk) {
      return Fail(ChunkParseError(parse));
    }
    last_mask_ = field_mask;
    // Pushdown skips chunks by their index zone, so a zone that disagrees
    // with the records just decoded makes the file corrupt.
    if (!ZoneAgrees(chunk.zone, seen, field_mask)) {
      return Fail(TraceReadError::kCorrupt);
    }
    // Stacks are not persisted, so decoded records must surface the
    // in-memory "no stack" id. An unprojected stack field is already
    // default-initialised to it — skipping the pass over the records
    // matters when projection made decoding this chunk cheap.
    if ((field_mask & kFieldStack) != 0) {
      for (TraceRecord& record : decoded_) {
        record.stack = kEmptyStack;
      }
    }
  } else {
    decoded_.clear();
    decoded_.reserve(chunk.records);
    const size_t table_size = reader_->callsites_.size();
    for (uint32_t i = 0; i < chunk.records; ++i) {
      auto record = DecodeRecord(bytes + static_cast<size_t>(i) * kEncodedRecordSize);
      if (!record.has_value() || record->callsite >= table_size) {
        return Fail(TraceReadError::kCorrupt);  // bad op, or a call-site past the table
      }
      record->stack = kEmptyStack;
      decoded_.push_back(*record);
    }
  }
  return std::span<const TraceRecord>(decoded_.data(), decoded_.size());
}

size_t EffectiveJobs(size_t requested, size_t chunk_count) {
  size_t jobs = requested;
  if (jobs == 0) {
    jobs = std::thread::hardware_concurrency();
  }
  jobs = std::max<size_t>(jobs, 1);
  return std::min(jobs, std::max<size_t>(chunk_count, 1));
}

}  // namespace tempo

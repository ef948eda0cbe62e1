// Streaming access to trace files, chunk by chunk: the one parser of every
// trace format.
//
// TraceChunkReader opens a trace file, parses its header (call-site table)
// and chunk index, and then hands out fixed-size batches of decoded
// records on demand — the whole trace is never materialized. v2 chunks
// are fixed width, so their layout follows from the header and the index
// footer must restate it; v3 chunks are variable-sized, so Open walks
// their 9-byte chunk headers from the payload start and the footer must
// restate that walk. v1 files have no index, but their records are
// contiguous and fixed width, so the reader synthesizes chunk boundaries
// arithmetically and serves them the same way. Consumers therefore never
// care which version is on disk. v3 index entries additionally carry each
// chunk's zone map (TraceChunkRef::zone), which predicate-carrying
// consumers use to skip chunks without decoding them. A cursor is the only
// way to read a trace file's records: every tool, the analysis pipeline
// and the tests sweep one, so every reader gives the same answer for the
// same bytes.
//
// Damage: a file that ends before its declared layout does is kTruncated,
// and so is a v3 file that declares more than 64 records per byte of file
// (no payload that small could hold them). A file that contradicts itself
// is kCorrupt: a chunk capacity of zero or above kMaxChunkRecords, an
// index entry that disagrees with the chunks, bytes after the index
// trailer (or after the records of a v1 file), a record op past kUnblock,
// a call-site id outside the file's table, or a v3 index zone that
// disagrees with its chunk's records. Open checks the layout; a cursor
// checks each chunk's records, and their zone, as it decodes them. A
// chunk that pushdown skips is never decoded, so its zone is trusted.
//
// Read path: Open memory-maps the file read-only, so cursors decode
// straight out of the page cache with no read syscalls or staging copies.
// When mapping fails, Open reads the file into one buffer the reader owns
// instead. Either way the header and index are parsed from those bytes.
//
// Concurrency model: the reader itself is immutable after Open and safe
// to share across threads. Each worker thread creates its own Cursor,
// which owns a private decode buffer; Cursor::Read seeks to any chunk in
// any order, so N workers can stream disjoint chunk ranges in parallel
// (this is what analysis/pipeline.h does). EffectiveJobs is the one rule
// for how many threads work on a trace's chunks: the analysis pipeline
// reads them and the file writers (file.h) encode them with it.

#ifndef TEMPO_SRC_TRACE_CHUNKED_H_
#define TEMPO_SRC_TRACE_CHUNKED_H_

#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "src/trace/callsite.h"
#include "src/trace/codec.h"
#include "src/trace/file.h"

namespace tempo {

class TraceChunkReader {
 public:
  // Parses the header and chunk index of `path`. On failure returns
  // nullopt with the reason in `*error` when given.
  static std::optional<TraceChunkReader> Open(const std::string& path,
                                              TraceReadError* error = nullptr);

  uint32_t version() const { return version_; }
  uint64_t record_count() const { return record_count_; }
  size_t chunk_count() const { return chunks_.size(); }
  const TraceChunkRef& chunk(size_t index) const { return chunks_[index]; }
  const CallsiteRegistry& callsites() const { return callsites_; }
  // Total on-disk bytes of all record chunks (excludes header and index).
  uint64_t payload_bytes() const { return payload_bytes_; }
  // True when the file is memory-mapped rather than read into a buffer.
  bool mapped() const { return mapped_; }

  // A per-thread read position with a private decode buffer. Spans
  // returned by Read are valid until the next Read on the same cursor (or
  // its destruction).
  class Cursor {
   public:
    explicit Cursor(const TraceChunkReader* reader) : reader_(reader) {}

    // Decodes chunk `index`. Returns an empty span and sets error() on a
    // corrupt chunk; an empty trace has no chunks, so an empty result
    // always means failure.
    std::span<const TraceRecord> Read(size_t index) { return Read(index, kAllTraceFields); }

    // As Read(index), but decodes only the fields in `field_mask`
    // (projection pushdown). On v3 files the unselected stripes are
    // skipped, not decoded, and the corresponding record fields come
    // back default-initialised. Only decoded fields are checked: a
    // skipped call-site stripe is not checked against the table, nor a
    // skipped timestamp, pid or op stripe against the chunk's zone. v1/v2
    // rows are fixed width, so the mask is ignored and every field is
    // populated — consumers must treat extra populated fields as allowed,
    // not guaranteed.
    std::span<const TraceRecord> Read(size_t index, uint16_t field_mask);

    bool ok() const { return !failed_; }
    TraceReadError error() const { return error_; }

   private:
    std::span<const TraceRecord> Fail(TraceReadError error);

    const TraceChunkReader* reader_;
    std::vector<TraceRecord> decoded_;
    V3DecodeScratch scratch_;
    // Field mask of the last successful v3 decode, or kAllTraceFields+1
    // (an impossible mask) when decoded_ is not reusable. When the next
    // Read wants the same chunk size and a superset of these fields, the
    // row buffer is recycled instead of re-initialised.
    uint16_t last_mask_ = kAllTraceFields + 1;
    bool failed_ = false;
    TraceReadError error_ = TraceReadError::kIo;
  };

  // Opens a new private cursor for one consumer thread.
  Cursor MakeCursor() const { return Cursor(this); }

 private:
  TraceChunkReader() = default;

  uint32_t version_ = 0;
  uint64_t record_count_ = 0;
  uint64_t payload_bytes_ = 0;
  std::vector<TraceChunkRef> chunks_;
  CallsiteRegistry callsites_;
  // The whole file, shared by every cursor: a read-only memory map or a
  // buffer read from the file.
  std::shared_ptr<const uint8_t> bytes_;
  bool mapped_ = false;
};

// Threads to put on `chunk_count` chunks when `requested` are asked for:
// 0 asks for std::thread::hardware_concurrency(). Never more than the
// chunks, and at least one.
size_t EffectiveJobs(size_t requested, size_t chunk_count);

}  // namespace tempo

#endif  // TEMPO_SRC_TRACE_CHUNKED_H_

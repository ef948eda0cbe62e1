// Streaming v2/v3 trace writer.
//
// The study's instrumented kernels never held a whole trace in memory:
// relayfs sub-buffers went to disk as they filled, and analysis ran on the
// files afterwards (Section 3.2). TraceStreamWriter is the file-side half of
// that pipeline for tempo: records are appended one at a time (typically by
// a RelayDrainer's emit callback), encoded chunks go to disk as they fill,
// and Close() produces a file byte-identical to what
// SerializeTrace(records, callsites, {version = 2 or 3}) would have built
// from the same record sequence — so tracestat, TraceChunkReader and
// PipelineRunner consume streamed and buffered traces interchangeably.
//
// Both layouts put the call-site table and the record count *before* the
// chunks, and both are only known once recording ends. The writer therefore
// streams chunks to a spill file (`path` + ".spill") and assembles the
// final file at Close(): header, spill contents copied through a small
// buffer, then the index footer with offsets rebased past the header. Peak
// memory is one open chunk regardless of trace length. The open chunk's
// records stay unencoded until it fills, for v2 as for v3, and then go
// through EncodeTraceChunk, the chunk encoder SerializeTrace and
// WriteTraceFile call: the columnar codec needs the whole column to pick
// stripe encodings, and v2 rows are sized once and stored in place.
//
// Single-threaded: all calls must come from one thread (the drainer).

#ifndef TEMPO_SRC_TRACE_STREAM_WRITER_H_
#define TEMPO_SRC_TRACE_STREAM_WRITER_H_

#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "src/trace/callsite.h"
#include "src/trace/file.h"

namespace tempo {

class TraceStreamWriter {
 public:
  // Starts a streamed v2 or v3 trace at `path`. The registry is read at
  // Close(), so call sites may still be interned while recording; it must
  // outlive the writer. `options.version` must be a chunked version (v1
  // has no index and gains nothing from streaming), and
  // `options.chunk_records` at most kMaxChunkRecords; otherwise ok() is
  // false from the start.
  TraceStreamWriter(std::string path, const CallsiteRegistry* callsites,
                    const TraceWriteOptions& options = {});
  ~TraceStreamWriter();
  TraceStreamWriter(const TraceStreamWriter&) = delete;
  TraceStreamWriter& operator=(const TraceStreamWriter&) = delete;

  // Appends one record; flushes the chunk to the spill file when it fills.
  // Returns false once the writer has failed (I/O error or bad options).
  bool Append(const TraceRecord& record);

  // Flushes the final partial chunk, assembles the final file, and removes
  // the spill file. Returns false if any step failed; idempotent.
  bool Close();

  bool ok() const { return ok_; }
  uint64_t records_written() const { return records_; }
  uint64_t chunks_flushed() const { return index_.size(); }

 private:
  void FlushChunk();
  void FailAndCleanup();

  std::string path_;
  std::string spill_path_;
  const CallsiteRegistry* callsites_;
  TraceWriteOptions options_;
  uint32_t capacity_;  // records per full chunk

  std::FILE* spill_ = nullptr;
  std::vector<TraceRecord> pending_;     // unencoded records of the open chunk
  std::vector<uint8_t> chunk_;           // encoded bytes of the chunk being flushed
  V3EncodeScratch encode_scratch_;       // v3 columns and dictionary, reused per chunk
  uint64_t spill_bytes_ = 0;             // bytes already flushed to the spill
  std::vector<TraceChunkRef> index_;     // offsets spill-relative until Close
  uint64_t records_ = 0;
  bool ok_ = true;
  bool closed_ = false;
};

}  // namespace tempo

#endif  // TEMPO_SRC_TRACE_STREAM_WRITER_H_

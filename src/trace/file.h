// Trace files: persisting a trace (records + call-site table) to disk.
//
// The study's workflow was to log binary records into the kernel buffer,
// read them out after the run, and convert to text for analysis
// (Section 3.2). tempo's equivalent: TraceRun -> WriteTraceFile ->
// tools/trace2txt | tools/tracestat, or a TraceChunkReader (chunked.h)
// feeding the analysis pipeline chunk by chunk.
//
// Three on-disk layouts share one header (little endian):
//
//   v1 (monolithic):
//     "TEMPOTRC" magic, u32 version = 1
//     u32 callsite count, then per call-site: u32 id, u32 parent,
//         u16 name length, name bytes
//     u64 record count, then the codec.h fixed-width records.
//
//   v2 (chunked):
//     "TEMPOTRC" magic, u32 version = 2
//     call-site table as in v1
//     u64 record count, u32 chunk capacity (records per full chunk,
//         1..kMaxChunkRecords)
//     chunks of codec.h records, every chunk `capacity` records except a
//         shorter final one
//     index footer: u32 chunk count, then per chunk u64 file offset +
//         u32 record count; u64 footer offset; "TEMPOIDX" trailer magic.
//
//   v3 (columnar, compressed):
//     header as in v2 but version = 3
//     self-describing columnar chunks (codec.h EncodeV3Chunk): one stripe
//         per record field, per-stripe codec ids, optional block
//         compression — chunks are variable-sized on disk
//     index footer: u32 chunk count, then per chunk u64 file offset,
//         u32 stored bytes, u32 record count, and a zone map (u64 min/max
//         timestamp, u64 pid digest, u8 op mask); u64 footer offset;
//         "TEMPOIDX" trailer magic.
//
// Every version is written by one chunk encoder, EncodeTraceChunk:
// SerializeTrace, WriteTraceFile and TraceStreamWriter (stream_writer.h)
// cut the records into chunks of `chunk_records` and hand each to it, so
// their files are byte-identical; a v1 file is the same rows without the
// chunk framing. The two bulk writers, SerializeTrace and WriteTraceFile,
// hold the whole trace, so they encode its chunks on W threads, W =
// EffectiveJobs(0, chunks) (chunked.h: one per hardware thread, at most
// one per chunk), the calling thread among them. The calling thread writes
// the chunks strictly in chunk order and builds the index, so the bytes do
// not depend on W; at most 2W encoded chunks exist at once, in buffers that
// are reused from chunk to chunk. With W = 1 no thread is started.
// TraceStreamWriter encodes on its one drainer thread. Every version is
// read by one parser, TraceChunkReader
// (chunked.h), one chunk at a time: the index footer lets it hand out
// chunks to parallel workers without materializing the whole trace, and
// the v3 zone maps additionally let predicate-carrying consumers skip
// chunks without decoding them.

#ifndef TEMPO_SRC_TRACE_FILE_H_
#define TEMPO_SRC_TRACE_FILE_H_

#include <span>
#include <string>
#include <vector>

#include "src/trace/callsite.h"
#include "src/trace/codec.h"

namespace tempo {

inline constexpr uint32_t kTraceFileVersion = 1;
inline constexpr uint32_t kTraceFileVersionChunked = 2;
inline constexpr uint32_t kTraceFileVersionColumnar = 3;

// Records per full chunk in a v2 file. 64Ki records x 48 bytes = 3 MiB of
// payload per chunk: large enough that per-chunk overheads vanish, small
// enough that a 4-worker pipeline balances even short traces.
inline constexpr uint32_t kDefaultChunkRecords = 64 * 1024;

// The most records one v2/v3 chunk may hold: 16x the default. A reader
// sizes a chunk's decode buffers from its record count, so a header that
// declares a larger capacity is corrupt, and no writer emits one.
inline constexpr uint32_t kMaxChunkRecords = 1024 * 1024;

// Why a trace failed to load. io: the file could not be opened or read;
// magic: not a tempo trace; version: a tempo trace from an unknown format
// revision; truncated: the file ends before its declared content does;
// corrupt: the content is self-inconsistent (bad record op, a call-site id
// outside the file's table, out-of-order call-site table, an index that
// contradicts the header or the chunks, a v3 zone that contradicts its
// chunk's records, bytes after the declared end);
// codec: a v3 chunk uses a stripe or block codec this build does not know
// (a newer writer's file — distinct from corruption so tools can say so).
enum class TraceReadError : uint8_t {
  kIo = 0,
  kMagic = 1,
  kVersion = 2,
  kTruncated = 3,
  kCorrupt = 4,
  kCodec = 5,
};

// Short mnemonic ("truncated file", ...) for error messages.
const char* TraceReadErrorName(TraceReadError error);

// Output-format knobs for WriteTraceFile / SerializeTrace.
struct TraceWriteOptions {
  uint32_t version = kTraceFileVersionChunked;
  // v2/v3: records per full chunk, at most kMaxChunkRecords (0 means 1).
  uint32_t chunk_records = kDefaultChunkRecords;
  // v3 only: block codec applied per chunk (falls back to uncompressed
  // automatically on chunks the codec cannot shrink). Off by default:
  // the columnar stripes alone are ~0.3x of v2 and decode faster than
  // the row format, while TempoLz buys another ~25% of disk at roughly
  // half the scan speed — worth it for cold archives, not for traces
  // that are still being queried.
  BlockCodecId block_codec = BlockCodecId::kNone;
};

// One chunk of a trace file: where it starts, how many records it holds,
// and its on-disk size (records * 48 for v1/v2 rows, the encoded size for
// v3). The v2/v3 index footer stores one per chunk; `zone` is valid only
// for v3 chunks.
struct TraceChunkRef {
  uint64_t offset = 0;  // absolute file offset of the chunk
  uint32_t records = 0;
  uint64_t stored_bytes = 0;
  ChunkZone zone;
};

// The framing every writer shares (SerializeTrace, WriteTraceFile and
// TraceStreamWriter), so buffered and streamed files cannot drift apart.
// PutTraceHeader appends the magic, version, call-site table, record count
// and, for v2/v3, the chunk capacity. PutTraceIndex appends the v2/v3 index
// footer: one entry per chunk (absolute offsets), then `index_offset`,
// where the footer itself starts, and the trailer magic.
void PutTraceHeader(uint32_t version, const CallsiteRegistry& callsites, uint64_t records,
                    uint32_t chunk_records, std::vector<uint8_t>* out);
void PutTraceIndex(uint32_t version, std::span<const TraceChunkRef> chunks,
                   uint64_t index_offset, std::vector<uint8_t>* out);

// The chunk encoder every writer calls: appends `records` as one chunk of
// an `options.version` file to `*out` (codec.h rows for v1/v2, EncodeV3Chunk
// with `scratch` for v3) and returns its index entry, for a chunk at file
// offset `offset`. The chunk's bytes are the last `stored_bytes` of `*out`.
TraceChunkRef EncodeTraceChunk(std::span<const TraceRecord> records,
                               const TraceWriteOptions& options, uint64_t offset,
                               V3EncodeScratch* scratch, std::vector<uint8_t>* out);

// Writes records + call-site table to `path` (chunked v2 by default). Its
// chunks are encoded on W threads, the calling thread among them, which
// writes each in chunk order as soon as it and every chunk before it are
// encoded; at most 2W encoded chunks are held at once. Returns false on
// I/O error, having stopped the encoding, joined its threads and removed
// the partly written file, or without creating the file when
// `options.chunk_records` exceeds kMaxChunkRecords. An exception thrown
// while encoding reaches the caller once every thread has joined, and the
// file is removed.
bool WriteTraceFile(const std::string& path, const std::vector<TraceRecord>& records,
                    const CallsiteRegistry& callsites,
                    const TraceWriteOptions& options = {});

// The bytes WriteTraceFile writes, built in memory the same way: chunks
// encoded on W threads and appended in chunk order by the calling thread.
// Requires `options.chunk_records` <= kMaxChunkRecords; the reader rejects
// a file with a larger capacity.
std::vector<uint8_t> SerializeTrace(const std::vector<TraceRecord>& records,
                                    const CallsiteRegistry& callsites,
                                    const TraceWriteOptions& options = {});

}  // namespace tempo

#endif  // TEMPO_SRC_TRACE_FILE_H_

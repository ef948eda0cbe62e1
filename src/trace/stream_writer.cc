#include "src/trace/stream_writer.h"

namespace tempo {

namespace {
constexpr size_t kCopyBlock = size_t{1} << 16;
}  // namespace

TraceStreamWriter::TraceStreamWriter(std::string path,
                                     const CallsiteRegistry* callsites,
                                     const TraceWriteOptions& options)
    : path_(std::move(path)),
      spill_path_(path_ + ".spill"),
      callsites_(callsites),
      version_(options.version),
      capacity_(options.chunk_records > 0 ? options.chunk_records : 1),
      block_codec_(options.block_codec) {
  if (version_ != kTraceFileVersionChunked && version_ != kTraceFileVersionColumnar) {
    ok_ = false;
    return;
  }
  spill_ = std::fopen(spill_path_.c_str(), "wb");
  if (spill_ == nullptr) {
    ok_ = false;
    return;
  }
  if (version_ == kTraceFileVersionColumnar) {
    pending_.reserve(capacity_);
  } else {
    chunk_.reserve(static_cast<size_t>(capacity_) * kEncodedRecordSize);
  }
}

TraceStreamWriter::~TraceStreamWriter() { Close(); }

bool TraceStreamWriter::Append(const TraceRecord& record) {
  if (!ok_ || closed_) {
    return false;
  }
  if (version_ == kTraceFileVersionColumnar) {
    pending_.push_back(record);
  } else {
    EncodeRecord(record, &chunk_);
  }
  ++chunk_records_;
  ++records_;
  if (chunk_records_ == capacity_) {
    FlushChunk();
  }
  return ok_;
}

void TraceStreamWriter::FlushChunk() {
  if (chunk_records_ == 0) {
    return;
  }
  TraceChunkRef entry;
  entry.offset = spill_bytes_;
  entry.records = chunk_records_;
  if (version_ == kTraceFileVersionColumnar) {
    chunk_.clear();
    EncodeV3Chunk(std::span<const TraceRecord>(pending_.data(), pending_.size()),
                  block_codec_, &encode_scratch_, &chunk_, &entry.zone);
    pending_.clear();
  }
  entry.stored_bytes = chunk_.size();
  index_.push_back(entry);
  if (std::fwrite(chunk_.data(), 1, chunk_.size(), spill_) != chunk_.size()) {
    FailAndCleanup();
    return;
  }
  spill_bytes_ += chunk_.size();
  chunk_.clear();
  chunk_records_ = 0;
}

bool TraceStreamWriter::Close() {
  if (closed_) {
    return ok_;
  }
  closed_ = true;
  if (!ok_) {
    FailAndCleanup();
    return false;
  }
  FlushChunk();
  if (!ok_) {
    return false;
  }

  // Everything that precedes the chunks in the chunked layouts is now known.
  std::vector<uint8_t> header;
  PutTraceHeader(version_, *callsites_, records_, capacity_, &header);

  // The chunk offsets are spill-relative until rebased past the header —
  // this is what makes the result byte-identical to SerializeTrace.
  for (TraceChunkRef& entry : index_) {
    entry.offset += header.size();
  }
  std::vector<uint8_t> footer;
  PutTraceIndex(version_, index_, header.size() + spill_bytes_, &footer);

  bool ok = std::fclose(spill_) == 0;
  spill_ = nullptr;
  std::FILE* in = ok ? std::fopen(spill_path_.c_str(), "rb") : nullptr;
  std::FILE* out = in != nullptr ? std::fopen(path_.c_str(), "wb") : nullptr;
  ok = out != nullptr &&
       std::fwrite(header.data(), 1, header.size(), out) == header.size();
  if (ok) {
    uint8_t block[kCopyBlock];
    size_t n = 0;
    while (ok && (n = std::fread(block, 1, sizeof(block), in)) > 0) {
      ok = std::fwrite(block, 1, n, out) == n;
    }
    ok = ok && std::ferror(in) == 0;
  }
  ok = ok && std::fwrite(footer.data(), 1, footer.size(), out) == footer.size();
  if (in != nullptr) {
    std::fclose(in);
  }
  if (out != nullptr) {
    ok = (std::fclose(out) == 0) && ok;
  }
  std::remove(spill_path_.c_str());
  if (!ok) {
    std::remove(path_.c_str());  // never leave a half-written trace behind
    ok_ = false;
  }
  return ok_;
}

void TraceStreamWriter::FailAndCleanup() {
  ok_ = false;
  if (spill_ != nullptr) {
    std::fclose(spill_);
    spill_ = nullptr;
  }
  std::remove(spill_path_.c_str());
}

}  // namespace tempo

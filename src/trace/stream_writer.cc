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
      options_(options),
      capacity_(options.chunk_records > 0 ? options.chunk_records : 1) {
  if ((options_.version != kTraceFileVersionChunked &&
       options_.version != kTraceFileVersionColumnar) ||
      capacity_ > kMaxChunkRecords) {
    ok_ = false;
    return;
  }
  spill_ = std::fopen(spill_path_.c_str(), "wb");
  if (spill_ == nullptr) {
    ok_ = false;
    return;
  }
  pending_.reserve(capacity_);
}

TraceStreamWriter::~TraceStreamWriter() { Close(); }

bool TraceStreamWriter::Append(const TraceRecord& record) {
  if (!ok_ || closed_) {
    return false;
  }
  pending_.push_back(record);
  ++records_;
  if (pending_.size() == capacity_) {
    FlushChunk();
  }
  return ok_;
}

void TraceStreamWriter::FlushChunk() {
  if (pending_.empty()) {
    return;
  }
  chunk_.clear();
  index_.push_back(
      EncodeTraceChunk(pending_, options_, spill_bytes_, &encode_scratch_, &chunk_));
  pending_.clear();
  if (std::fwrite(chunk_.data(), 1, chunk_.size(), spill_) != chunk_.size()) {
    FailAndCleanup();
    return;
  }
  spill_bytes_ += chunk_.size();
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
  PutTraceHeader(options_.version, *callsites_, records_, capacity_, &header);

  // The chunk offsets are spill-relative until rebased past the header —
  // this is what makes the result byte-identical to SerializeTrace.
  for (TraceChunkRef& entry : index_) {
    entry.offset += header.size();
  }
  std::vector<uint8_t> footer;
  PutTraceIndex(options_.version, index_, header.size() + spill_bytes_, &footer);

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

#include "src/trace/stream_writer.h"

#include <cstring>

#include "src/trace/wire.h"

namespace tempo {

namespace {
constexpr size_t kMagicSize = sizeof(wire::kTraceMagic);
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
  IndexEntry entry;
  entry.offset = spill_bytes_;
  entry.records = chunk_records_;
  if (version_ == kTraceFileVersionColumnar) {
    chunk_.clear();
    EncodeV3Chunk(std::span<const TraceRecord>(pending_.data(), pending_.size()),
                  block_codec_, &encode_scratch_, &chunk_, &entry.zone);
    pending_.clear();
  }
  entry.stored = chunk_.size();
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
  std::vector<uint8_t> header(kMagicSize);
  std::memcpy(header.data(), wire::kTraceMagic, kMagicSize);
  wire::Put32(version_, &header);
  wire::PutCallsiteTable(*callsites_, &header);
  wire::Put64(records_, &header);
  wire::Put32(capacity_, &header);
  const uint64_t header_size = header.size();

  // The footer's offsets are spill-relative until rebased past the header —
  // this is what makes the result byte-identical to SerializeTrace.
  std::vector<uint8_t> footer;
  wire::Put32(static_cast<uint32_t>(index_.size()), &footer);
  for (const IndexEntry& entry : index_) {
    wire::Put64(header_size + entry.offset, &footer);
    if (version_ == kTraceFileVersionColumnar) {
      wire::Put32(static_cast<uint32_t>(entry.stored), &footer);
    }
    wire::Put32(entry.records, &footer);
    if (version_ == kTraceFileVersionColumnar) {
      wire::Put64(static_cast<uint64_t>(entry.zone.min_timestamp), &footer);
      wire::Put64(static_cast<uint64_t>(entry.zone.max_timestamp), &footer);
      wire::Put64(entry.zone.pid_digest, &footer);
      footer.push_back(entry.zone.op_mask);
    }
  }
  wire::Put64(header_size + spill_bytes_, &footer);
  footer.insert(footer.end(), wire::kTraceIndexMagic,
                wire::kTraceIndexMagic + kMagicSize);

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

#include "src/trace/file.h"

#include <algorithm>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <exception>
#include <memory>
#include <mutex>
#include <system_error>
#include <thread>

#include "src/trace/chunked.h"
#include "src/trace/wire.h"

namespace tempo {

namespace {

constexpr size_t kMagicSize = sizeof(wire::kTraceMagic);

// One slot of the bulk writers' ring: an encoded chunk waiting to be
// written, in a buffer every chunk that lands in the slot reuses.
struct EncodedChunk {
  std::vector<uint8_t> bytes;
  TraceChunkRef ref;
  bool ready = false;  // encoded and not yet written; guarded by the mutex
};

// Encodes the chunks of a trace on W = EffectiveJobs(0, chunks) threads,
// the calling thread among them, and hands them to the calling thread in
// chunk order. Chunk i is encoded into slot i % 2W of a ring, and no
// thread starts it before chunk i - 2W has been handed over, so at most 2W
// encoded chunks exist at once. Each thread keeps one V3EncodeScratch. With
// W = 1 no thread is started: the calling thread encodes every chunk just
// before handing it over.
class OrderedChunkEncoder {
 public:
  OrderedChunkEncoder(const std::vector<TraceRecord>& records, const TraceWriteOptions& options,
                      uint32_t capacity)
      : records_(records),
        options_(options),
        capacity_(capacity),
        count_((records.size() + capacity - 1) / capacity),
        ring_(2 * EffectiveJobs(0, count_)) {
    // Reserved first, so no allocation can fail with a thread started.
    threads_.reserve(ring_.size() / 2 - 1);
    try {
      for (size_t w = 1; w < ring_.size() / 2; ++w) {
        threads_.emplace_back([this] { Work(); });
      }
    } catch (const std::system_error&) {
      // A thread that cannot be started leaves its chunks to the others.
    }
  }

  OrderedChunkEncoder(const OrderedChunkEncoder&) = delete;
  OrderedChunkEncoder& operator=(const OrderedChunkEncoder&) = delete;

  ~OrderedChunkEncoder() { Join(); }

  // Calls `write(ref, bytes)` for every chunk in order, with `ref.offset`
  // left 0, until it returns false. False when a write failed. An
  // exception thrown while encoding is rethrown here once every thread has
  // joined.
  template <typename Write>
  bool ForEachChunk(const Write& write) {
    V3EncodeScratch scratch;
    for (size_t i = 0; i < count_; ++i) {
      EncodedChunk& chunk = ring_[i % ring_.size()];
      bool failed = false;
      {
        std::unique_lock<std::mutex> lock(mu_);
        // Until this chunk is ready, encode the next unclaimed one (maybe this one).
        while (!chunk.ready && failure_ == nullptr) {
          if (Claimable()) {
            const size_t claimed = next_++;
            lock.unlock();
            Encode(claimed, &scratch);
            lock.lock();
            ring_[claimed % ring_.size()].ready = true;
          } else {
            ready_.wait(lock);
          }
        }
        failed = failure_ != nullptr;
      }
      if (failed) {
        Join();
        std::rethrow_exception(failure_);
      }
      const bool ok = write(chunk.ref, std::span<const uint8_t>(chunk.bytes));
      {
        std::lock_guard<std::mutex> lock(mu_);
        chunk.ready = false;
        written_ = i + 1;
      }
      if (!ok) {
        return false;
      }
      space_.notify_one();
    }
    return true;
  }

 private:
  // True when the next chunk may be encoded: it exists, and its ring slot
  // has been written. Caller holds the mutex.
  bool Claimable() const { return next_ < count_ && next_ < written_ + ring_.size(); }

  void Encode(size_t index, V3EncodeScratch* scratch) {
    const size_t first = index * capacity_;
    const std::span<const TraceRecord> records(
        records_.data() + first, std::min<size_t>(capacity_, records_.size() - first));
    EncodedChunk& chunk = ring_[index % ring_.size()];
    chunk.bytes.clear();
    chunk.ref = EncodeTraceChunk(records, options_, 0, scratch, &chunk.bytes);
  }

  void Work() {
    V3EncodeScratch scratch;
    std::unique_lock<std::mutex> lock(mu_);
    while (true) {
      space_.wait(lock, [this] { return stop_ || next_ >= count_ || Claimable(); });
      if (stop_ || next_ >= count_) {
        return;
      }
      const size_t claimed = next_++;
      lock.unlock();
      try {
        Encode(claimed, &scratch);
      } catch (...) {
        lock.lock();
        if (failure_ == nullptr) {
          failure_ = std::current_exception();
        }
        ready_.notify_one();
        return;
      }
      lock.lock();
      ring_[claimed % ring_.size()].ready = true;
      ready_.notify_one();
    }
  }

  // Stops handing out chunks and joins every thread.
  void Join() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    space_.notify_all();
    for (std::thread& thread : threads_) {
      thread.join();
    }
    threads_.clear();
  }

  const std::vector<TraceRecord>& records_;
  const TraceWriteOptions& options_;
  const uint32_t capacity_;
  const size_t count_;
  std::vector<EncodedChunk> ring_;
  std::mutex mu_;                  // guards the fields below and ring_'s `ready`
  std::condition_variable ready_;  // a chunk was encoded, or encoding failed
  std::condition_variable space_;  // a chunk was written, or the threads stop
  size_t next_ = 0;                // the next chunk to encode
  size_t written_ = 0;             // chunks handed over so far
  bool stop_ = false;
  std::exception_ptr failure_;
  std::vector<std::thread> threads_;  // last: the threads use every field above
};

// Writes the file of `records` through `put(bytes)`, which appends bytes
// to the output: the header, every chunk in order as OrderedChunkEncoder
// hands it over, then the index. False as soon as a put fails.
template <typename Put>
bool EncodeTrace(const std::vector<TraceRecord>& records, const CallsiteRegistry& callsites,
                 const TraceWriteOptions& options, const Put& put) {
  const uint32_t capacity = options.chunk_records > 0 ? options.chunk_records : 1;
  std::vector<uint8_t> framing;
  PutTraceHeader(options.version, callsites, records.size(), capacity, &framing);
  if (!put(std::span<const uint8_t>(framing))) {
    return false;
  }
  uint64_t offset = framing.size();
  std::vector<TraceChunkRef> chunks;
  OrderedChunkEncoder encoder(records, options, capacity);
  const bool written =
      encoder.ForEachChunk([&](TraceChunkRef ref, std::span<const uint8_t> bytes) {
        ref.offset = offset;
        offset += ref.stored_bytes;
        chunks.push_back(ref);
        return put(bytes);
      });
  if (!written || options.version == kTraceFileVersion) {
    return written;
  }
  framing.clear();
  PutTraceIndex(options.version, chunks, offset, &framing);
  return put(std::span<const uint8_t>(framing));
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
  EncodeTrace(records, callsites, options, [&out](std::span<const uint8_t> bytes) {
    out.insert(out.end(), bytes.begin(), bytes.end());
    return true;
  });
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
  const bool written = EncodeTrace(
      records, callsites, options, [f = file.get()](std::span<const uint8_t> bytes) {
        return std::fwrite(bytes.data(), 1, bytes.size(), f) == bytes.size();
      });
  if (std::fclose(file.release()) == 0 && written) {
    return true;
  }
  std::remove(path.c_str());
  return false;
}

}  // namespace tempo

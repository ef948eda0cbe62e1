// Little-endian wire helpers shared by the trace-file formats.
//
// Every trace layout (file.h) is built from the same primitives:
// fixed-width LE integers, varints, length-prefixed strings, and the
// call-site table encoding. The writers (file.cc), the one parser
// (chunked.cc) and the row and v3 codecs (codec.cc) all use these.

#ifndef TEMPO_SRC_TRACE_WIRE_H_
#define TEMPO_SRC_TRACE_WIRE_H_

#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "src/trace/callsite.h"

namespace tempo {
namespace wire {

// File magics shared by the writers (file.cc) and the parser (chunked.cc).
inline constexpr char kTraceMagic[8] = {'T', 'E', 'M', 'P', 'O', 'T', 'R', 'C'};
inline constexpr char kTraceIndexMagic[8] = {'T', 'E', 'M', 'P', 'O', 'I', 'D', 'X'};

inline void Put16(uint16_t v, std::vector<uint8_t>* out) {
  out->push_back(static_cast<uint8_t>(v));
  out->push_back(static_cast<uint8_t>(v >> 8));
}

inline void Put32(uint32_t v, std::vector<uint8_t>* out) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<uint8_t>(v >> (8 * i)));
  }
}

inline void Put64(uint64_t v, std::vector<uint8_t>* out) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<uint8_t>(v >> (8 * i)));
  }
}

// Stores `v` little-endian into the sizeof(v) bytes at `p`, which the
// caller has already sized: one fixed-width store where Put16/32/64 append
// byte by byte. The host's byte order is the wire's.
static_assert(std::endian::native == std::endian::little,
              "StoreLE copies host-order bytes: a big-endian host needs byte stores");
template <typename T>
inline void StoreLE(T v, uint8_t* p) {
  std::memcpy(p, &v, sizeof(v));
}

inline void Store16(uint16_t v, uint8_t* p) { StoreLE(v, p); }
inline void Store32(uint32_t v, uint8_t* p) { StoreLE(v, p); }
inline void Store64(uint64_t v, uint8_t* p) { StoreLE(v, p); }

inline uint16_t Get16(const uint8_t* p) {
  return static_cast<uint16_t>(p[0] | (p[1] << 8));
}

inline uint32_t Get32(const uint8_t* p) {
  uint32_t v = 0;
  for (int i = 3; i >= 0; --i) {
    v = (v << 8) | p[i];
  }
  return v;
}

inline uint64_t Get64(const uint8_t* p) {
  uint64_t v = 0;
  for (int i = 7; i >= 0; --i) {
    v = (v << 8) | p[i];
  }
  return v;
}

// LEB128 varints and zig-zag folding, the primitives of the v3 columnar
// stripes (codec.h). A u64 takes 1..10 bytes; small values take one.
inline void PutVarint(uint64_t v, std::vector<uint8_t>* out) {
  while (v >= 0x80) {
    out->push_back(static_cast<uint8_t>(v) | 0x80);
    v >>= 7;
  }
  out->push_back(static_cast<uint8_t>(v));
}

// Decodes one varint from [p, end). Returns the byte after the varint, or
// nullptr when the input ends mid-varint or the encoding exceeds 10 bytes.
inline const uint8_t* GetVarint(const uint8_t* p, const uint8_t* end, uint64_t* v) {
  uint64_t value = 0;
  unsigned shift = 0;
  while (p < end && shift < 70) {
    const uint8_t byte = *p++;
    value |= static_cast<uint64_t>(byte & 0x7f) << shift;  // shift <= 63 here
    if ((byte & 0x80) == 0) {
      *v = value;
      return p;
    }
    shift += 7;
  }
  return nullptr;
}

// Zig-zag: signed deltas fold to small unsigned values so varints stay
// short for negative as well as positive movement.
inline uint64_t ZigZag(uint64_t v) {
  const int64_t s = static_cast<int64_t>(v);
  return (static_cast<uint64_t>(s) << 1) ^ static_cast<uint64_t>(s >> 63);
}

inline uint64_t UnZigZag(uint64_t v) {
  return (v >> 1) ^ (~(v & 1) + 1);
}

// Bounds-checked reader over a byte range.
class Reader {
 public:
  Reader(const uint8_t* data, size_t size) : data_(data), size_(size) {}
  explicit Reader(const std::vector<uint8_t>& bytes)
      : Reader(bytes.data(), bytes.size()) {}

  bool Read16(uint16_t* v) {
    if (offset_ + 2 > size_) {
      return false;
    }
    *v = Get16(data_ + offset_);
    offset_ += 2;
    return true;
  }
  bool Read32(uint32_t* v) {
    if (offset_ + 4 > size_) {
      return false;
    }
    *v = Get32(data_ + offset_);
    offset_ += 4;
    return true;
  }
  bool Read64(uint64_t* v) {
    if (offset_ + 8 > size_) {
      return false;
    }
    *v = Get64(data_ + offset_);
    offset_ += 8;
    return true;
  }
  bool ReadString(size_t length, std::string* out) {
    if (offset_ + length > size_) {
      return false;
    }
    out->assign(reinterpret_cast<const char*>(data_) + offset_, length);
    offset_ += length;
    return true;
  }
  const uint8_t* Raw(size_t length) {
    if (offset_ + length > size_) {
      return nullptr;
    }
    const uint8_t* p = data_ + offset_;
    offset_ += length;
    return p;
  }

  size_t offset() const { return offset_; }
  size_t remaining() const { return size_ - offset_; }

 private:
  const uint8_t* data_;
  size_t size_;
  size_t offset_ = 0;
};

// Appends the call-site table (slot 0, "?", is implicit): u32 count, then
// per call-site u32 id, u32 parent, u16 name length, name bytes.
inline void PutCallsiteTable(const CallsiteRegistry& callsites,
                             std::vector<uint8_t>* out) {
  Put32(static_cast<uint32_t>(callsites.size()), out);
  for (CallsiteId id = 1; id < callsites.size(); ++id) {
    Put32(id, out);
    Put32(callsites.Parent(id), out);
    const std::string& name = callsites.Name(id);
    Put16(static_cast<uint16_t>(name.size()), out);
    out->insert(out->end(), name.begin(), name.end());
  }
}

// Result of parsing the call-site table.
enum class TableParse { kOk, kTruncated, kCorrupt };

// Reads a call-site table written by PutCallsiteTable into `registry`
// (which must be freshly constructed so interned ids come out dense).
inline TableParse ReadCallsiteTable(Reader* reader, CallsiteRegistry* registry) {
  uint32_t count = 0;
  if (!reader->Read32(&count)) {
    return TableParse::kTruncated;
  }
  for (uint32_t i = 1; i < count; ++i) {
    uint32_t id = 0;
    uint32_t parent = 0;
    uint16_t name_length = 0;
    std::string name;
    if (!reader->Read32(&id) || !reader->Read32(&parent) ||
        !reader->Read16(&name_length) || !reader->ReadString(name_length, &name)) {
      return TableParse::kTruncated;
    }
    // Interning in file order reproduces the original dense ids.
    const CallsiteId assigned = registry->Intern(name, parent);
    if (assigned != id) {
      return TableParse::kCorrupt;  // duplicate or out-of-order table
    }
  }
  return TableParse::kOk;
}

}  // namespace wire
}  // namespace tempo

#endif  // TEMPO_SRC_TRACE_WIRE_H_

// Writes a small trace whose two fired timers lie 100,000 s apart, so
// that at tempotrace's default 1 s window the fires sit about 10^5 windows
// apart with nothing in between. The tools_tempotrace_sparse_windows ctest
// exports it and checks that the slack_p99 counter track stays a handful
// of events instead of one per empty window.
//
// With `extreme`, it writes instead four records at the ends of int64_t:
// one timer set near INT64_MIN and fired near INT64_MAX, a slack wider
// than int64_t holds, and one whose request saturates so it fires early.
// The tools_tempotrace_extreme_slack ctests pin its export.
//
// With `bad-zone`, it writes the sparse trace as v3 with one bit of the
// first chunk's index pid digest flipped: a zone that disagrees with its
// chunk's records. The tools_*_bad_zone ctests require every tool to
// reject it as corrupt.
//
// Usage: write_sparse_trace <out.trc> [extreme|bad-zone]

#include <cstdio>
#include <cstring>
#include <limits>
#include <vector>

#include "src/trace/callsite.h"
#include "src/trace/file.h"
#include "src/trace/record.h"
#include "src/trace/wire.h"

int main(int argc, char** argv) {
  using namespace tempo;
  const bool extreme = argc == 3 && std::strcmp(argv[2], "extreme") == 0;
  const bool bad_zone = argc == 3 && std::strcmp(argv[2], "bad-zone") == 0;
  if (argc != 2 && !extreme && !bad_zone) {
    std::fprintf(stderr, "usage: %s <out.trc> [extreme|bad-zone]\n", argv[0]);
    return 2;
  }
  CallsiteRegistry callsites;
  const CallsiteId site = callsites.Intern(extreme ? "test/extreme" : "test/sparse");
  std::vector<TraceRecord> records;
  if (extreme) {
    constexpr SimTime kMin = std::numeric_limits<SimTime>::min();
    constexpr SimTime kMax = std::numeric_limits<SimTime>::max();
    const struct {
      TimerOp op;
      SimTime at;
      TimerId timer;
    } ops[] = {{TimerOp::kSet, kMin + 1, 2},
               {TimerOp::kSet, kMax - 10, 1},
               {TimerOp::kExpire, kMax - 5, 1},
               {TimerOp::kExpire, kMax - 1, 2}};
    for (const auto& op : ops) {
      TraceRecord r;
      r.timestamp = op.at;
      r.timer = op.timer;
      r.timeout = op.op == TimerOp::kSet ? kSecond : 0;
      r.callsite = site;
      r.pid = 1;
      r.op = op.op;
      records.push_back(r);
    }
  }
  for (const SimTime at : {SimTime{0}, 100000 * kSecond}) {
    if (extreme) {
      break;
    }
    TraceRecord set;
    set.timestamp = at;
    set.timer = 1;
    set.timeout = 10 * kMillisecond;
    set.expiry = at + set.timeout;
    set.callsite = site;
    set.op = TimerOp::kSet;
    TraceRecord expire = set;
    expire.timestamp = set.expiry;
    expire.op = TimerOp::kExpire;
    records.push_back(set);
    records.push_back(expire);
  }
  if (bad_zone) {
    TraceWriteOptions v3;
    v3.version = kTraceFileVersionColumnar;
    std::vector<uint8_t> bytes = SerializeTrace(records, callsites, v3);
    // The footer's offset is the u64 before the 8-byte trailer magic. Its
    // first entry follows the u32 chunk count; the pid digest is 32 bytes in.
    const uint64_t footer = wire::Get64(bytes.data() + bytes.size() - 16);
    bytes[footer + 4 + 32] ^= 0x01;
    std::FILE* out = std::fopen(argv[1], "wb");
    const bool written = out != nullptr &&
                         std::fwrite(bytes.data(), 1, bytes.size(), out) == bytes.size();
    if (out == nullptr || std::fclose(out) != 0 || !written) {
      std::fprintf(stderr, "error: cannot write %s\n", argv[1]);
      return 1;
    }
    return 0;
  }
  if (!WriteTraceFile(argv[1], records, callsites)) {
    std::fprintf(stderr, "error: cannot write %s\n", argv[1]);
    return 1;
  }
  return 0;
}

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
// Usage: write_sparse_trace <out.trc> [extreme]

#include <cstdio>
#include <cstring>
#include <limits>
#include <vector>

#include "src/trace/callsite.h"
#include "src/trace/file.h"
#include "src/trace/record.h"

int main(int argc, char** argv) {
  using namespace tempo;
  const bool extreme = argc == 3 && std::strcmp(argv[2], "extreme") == 0;
  if (argc != 2 && !extreme) {
    std::fprintf(stderr, "usage: %s <out.trc> [extreme]\n", argv[0]);
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
  if (!WriteTraceFile(argv[1], records, callsites)) {
    std::fprintf(stderr, "error: cannot write %s\n", argv[1]);
    return 1;
  }
  return 0;
}

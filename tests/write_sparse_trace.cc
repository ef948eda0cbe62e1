// Writes a small trace whose two fired timers lie 100,000 s apart, so
// that at tempotrace's default 1 s window the fires sit about 10^5 windows
// apart with nothing in between. The tools_tempotrace_sparse_windows ctest
// exports it and checks that the slack_p99 counter track stays a handful
// of events instead of one per empty window.
//
// Usage: write_sparse_trace <out.trc>

#include <cstdio>
#include <vector>

#include "src/trace/callsite.h"
#include "src/trace/file.h"
#include "src/trace/record.h"

int main(int argc, char** argv) {
  using namespace tempo;
  if (argc != 2) {
    std::fprintf(stderr, "usage: %s <out.trc>\n", argv[0]);
    return 2;
  }
  CallsiteRegistry callsites;
  const CallsiteId site = callsites.Intern("test/sparse");
  std::vector<TraceRecord> records;
  for (const SimTime at : {SimTime{0}, 100000 * kSecond}) {
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

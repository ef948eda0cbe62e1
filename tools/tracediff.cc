// tracediff — compares two trace files (e.g. a kernel-feature ablation):
// summary deltas and per-call-site set-count deltas. Inputs may mix
// on-disk formats freely (flat v1, chunked v2, columnar v3): each is folded
// chunk by chunk from a TraceChunkReader cursor, so neither trace is ever
// held whole.

#include <algorithm>
#include <cstdio>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "src/analysis/summary.h"
#include "src/trace/chunked.h"
#include "tools/common.h"

namespace {

using namespace tempo;

// Folds the trace at `path` into its summary, and adds `sign` times its set
// count per call-site name to `*sets`. nullopt, with the reason printed,
// when the trace cannot be read.
std::optional<TraceSummary> FoldOrExplain(const std::string& path, const char* label,
                                          long long sign,
                                          std::map<std::string, long long>* sets) {
  TraceReadError error = TraceReadError::kIo;
  const auto reader = TraceChunkReader::Open(path, &error);
  if (!reader.has_value()) {
    tools::PrintTraceReadError(path, error);
    return std::nullopt;
  }
  SummaryPass pass(label);
  // The cursor fails a chunk whose call-site id is past the table.
  std::vector<long long> by_id(reader->callsites().size());
  TraceChunkReader::Cursor cursor = reader->MakeCursor();
  for (size_t i = 0; i < reader->chunk_count(); ++i) {
    const std::span<const TraceRecord> chunk = cursor.Read(i);
    if (!cursor.ok()) {
      tools::PrintTraceReadError(path, cursor.error());
      return std::nullopt;
    }
    pass.Accumulate(chunk);
    for (const TraceRecord& r : chunk) {
      if (r.op == TimerOp::kSet || r.op == TimerOp::kBlock) {
        ++by_id[r.callsite];
      }
    }
  }
  for (CallsiteId id = 0; id < by_id.size(); ++id) {
    if (by_id[id] != 0) {
      (*sets)[reader->callsites().Name(id)] += sign * by_id[id];
    }
  }
  return pass.Result();
}

}  // namespace

int main(int argc, char** argv) {
  const tools::ParsedArgs args = tools::ParseArgs(argc, argv, {});
  if (!args.ok() || args.positionals().size() != 2) {
    if (!args.ok()) {
      std::fprintf(stderr, "error: %s\n", args.error().c_str());
    }
    tools::PrintUsage(stderr, argv[0], "<trace-a> <trace-b>", {});
    return 2;
  }
  const std::string& path_a = args.positionals()[0];
  const std::string& path_b = args.positionals()[1];
  // Per call-site name: B's set count minus A's.
  std::map<std::string, long long> sets;
  const auto sa = FoldOrExplain(path_a, "A", -1, &sets);
  const auto sb = FoldOrExplain(path_b, "B", 1, &sets);
  if (!sa.has_value() || !sb.has_value()) {
    return 1;
  }

  std::printf("%-12s %12s %12s %10s\n", "metric", path_a.c_str(), path_b.c_str(), "delta");
  auto row = [&](const char* name, uint64_t va, uint64_t vb) {
    std::printf("%-12s %12llu %12llu %+10lld\n", name,
                static_cast<unsigned long long>(va), static_cast<unsigned long long>(vb),
                static_cast<long long>(vb) - static_cast<long long>(va));
  };
  row("timers", sa->timers, sb->timers);
  row("accesses", sa->accesses, sb->accesses);
  row("sets", sa->set, sb->set);
  row("expired", sa->expired, sb->expired);
  row("canceled", sa->canceled, sb->canceled);
  row("user", sa->user_space, sb->user_space);
  row("kernel", sa->kernel, sb->kernel);

  std::printf("\nper-call-site set deltas (largest first):\n");
  std::vector<std::pair<long long, std::string>> deltas;
  for (const auto& [name, delta] : sets) {
    if (delta != 0) {
      deltas.emplace_back(delta, name);
    }
  }
  std::sort(deltas.begin(), deltas.end(), [](const auto& x, const auto& y) {
    return std::llabs(x.first) > std::llabs(y.first);
  });
  for (size_t i = 0; i < deltas.size() && i < 25; ++i) {
    std::printf("  %-40s %+10lld\n", deltas[i].second.c_str(), deltas[i].first);
  }
  if (deltas.empty()) {
    std::printf("  (identical per-call-site set counts)\n");
  }
  return 0;
}

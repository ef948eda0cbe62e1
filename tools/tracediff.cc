// tracediff — compares two trace files (e.g. a kernel-feature ablation):
// summary deltas and per-call-site set-count deltas. Inputs may mix
// on-disk formats freely (flat v1, chunked v2, columnar v3) —
// ReadTraceFile decodes them all.

#include <algorithm>
#include <cstdio>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "src/analysis/summary.h"
#include "src/trace/file.h"
#include "tools/common.h"

namespace {

using namespace tempo;

std::map<std::string, uint64_t> SetsByCallsite(const LoadedTrace& trace) {
  std::map<std::string, uint64_t> out;
  for (const auto& r : trace.records) {
    if (r.op == TimerOp::kSet || r.op == TimerOp::kBlock) {
      ++out[trace.callsites.Name(r.callsite)];
    }
  }
  return out;
}

std::optional<LoadedTrace> LoadOrExplain(const std::string& path) {
  TraceReadError error = TraceReadError::kIo;
  auto trace = ReadTraceFile(path, &error);
  if (!trace.has_value()) {
    tools::PrintTraceReadError(path, error);
  }
  return trace;
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
  const auto a = LoadOrExplain(path_a);
  const auto b = LoadOrExplain(path_b);
  if (!a.has_value() || !b.has_value()) {
    return 1;
  }

  SummaryPass pass_a("A");
  SummaryPass pass_b("B");
  pass_a.Accumulate(a->records);
  pass_b.Accumulate(b->records);
  const TraceSummary sa = pass_a.Result();
  const TraceSummary sb = pass_b.Result();
  std::printf("%-12s %12s %12s %10s\n", "metric", path_a.c_str(), path_b.c_str(), "delta");
  auto row = [&](const char* name, uint64_t va, uint64_t vb) {
    std::printf("%-12s %12llu %12llu %+10lld\n", name,
                static_cast<unsigned long long>(va), static_cast<unsigned long long>(vb),
                static_cast<long long>(vb) - static_cast<long long>(va));
  };
  row("timers", sa.timers, sb.timers);
  row("accesses", sa.accesses, sb.accesses);
  row("sets", sa.set, sb.set);
  row("expired", sa.expired, sb.expired);
  row("canceled", sa.canceled, sb.canceled);
  row("user", sa.user_space, sb.user_space);
  row("kernel", sa.kernel, sb.kernel);

  std::printf("\nper-call-site set deltas (largest first):\n");
  const auto sets_a = SetsByCallsite(*a);
  const auto sets_b = SetsByCallsite(*b);
  std::set<std::string> names;
  for (const auto& [name, count] : sets_a) {
    names.insert(name);
  }
  for (const auto& [name, count] : sets_b) {
    names.insert(name);
  }
  std::vector<std::pair<long long, std::string>> deltas;
  for (const std::string& name : names) {
    const auto ia = sets_a.find(name);
    const auto ib = sets_b.find(name);
    const long long va = ia == sets_a.end() ? 0 : static_cast<long long>(ia->second);
    const long long vb = ib == sets_b.end() ? 0 : static_cast<long long>(ib->second);
    if (va != vb) {
      deltas.emplace_back(vb - va, name);
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

// tempoquery — selective queries over a recorded trace file.
//
// The study answered "who sets timers in this window?" by grepping the
// converted text trace; tempoquery answers it from the binary file
// directly. The filter (--where) becomes a Predicate that the analysis
// pipeline pushes down to the v3 zone-map index, so a selective query
// over a columnar trace decodes only the chunks that can match — the
// stderr footer reports how many chunks and bytes were actually touched.
// v1/v2 traces work too; they just scan everything.
//
//   tempoquery trace.trc --where pid=3|7,op=set|cancel,t=[1.5,30)
//   tempoquery trace.trc --where op=set --group-by callsite --top 10
//
// Like tracestat, output is byte-identical for any --jobs value.

#include <cstdio>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "src/analysis/pipeline.h"
#include "src/analysis/query.h"
#include "src/trace/chunked.h"
#include "src/trace/predicate.h"
#include "tools/common.h"

namespace {

using namespace tempo;

constexpr const char* kWhereHelp =
    "  where clauses (comma separated):\n"
    "    pid=<p>|<p>|...     records of these pids\n"
    "    op=<op>|<op>|...    ops: init,set,cancel,expire,block,unblock\n"
    "    t=[<a>,<b>)         timestamps in seconds, <a> inclusive, <b> exclusive\n";

// Splits `where` at commas that are not inside the [a,b) of a time range.
std::vector<std::string> SplitClauses(const std::string& where) {
  std::vector<std::string> clauses;
  std::string current;
  int depth = 0;
  for (const char c : where) {
    if (c == '[') {
      ++depth;
    } else if (c == ')' || c == ']') {
      if (depth > 0) {
        --depth;
      }
    }
    if (c == ',' && depth == 0) {
      clauses.push_back(current);
      current.clear();
    } else {
      current += c;
    }
  }
  if (!current.empty()) {
    clauses.push_back(current);
  }
  return clauses;
}

std::vector<std::string> SplitAlternatives(const std::string& list) {
  std::vector<std::string> out;
  std::string current;
  for (const char c : list) {
    if (c == '|') {
      out.push_back(current);
      current.clear();
    } else {
      current += c;
    }
  }
  out.push_back(current);
  return out;
}

bool ParseOpName(const std::string& name, TimerOp* op) {
  for (uint8_t o = 0; o <= static_cast<uint8_t>(TimerOp::kUnblock); ++o) {
    if (name == TimerOpName(static_cast<TimerOp>(o))) {
      *op = static_cast<TimerOp>(o);
      return true;
    }
  }
  return false;
}

// Parses one --where string into `predicate`; false (with a message on
// stderr) on malformed input.
bool ParseWhere(const std::string& where, Predicate* predicate) {
  for (const std::string& clause : SplitClauses(where)) {
    const size_t eq = clause.find('=');
    if (eq == std::string::npos || eq == 0) {
      std::fprintf(stderr, "error: malformed where clause '%s'\n", clause.c_str());
      return false;
    }
    const std::string key = clause.substr(0, eq);
    const std::string value = clause.substr(eq + 1);
    if (key == "pid") {
      for (const std::string& pid : SplitAlternatives(value)) {
        predicate->pids.push_back(static_cast<Pid>(tools::ParseInt(
            "pid", pid, std::numeric_limits<Pid>::min(), std::numeric_limits<Pid>::max())));
      }
    } else if (key == "op") {
      uint8_t mask = 0;
      for (const std::string& name : SplitAlternatives(value)) {
        TimerOp op;
        if (!ParseOpName(name, &op)) {
          std::fprintf(stderr, "error: unknown op '%s'\n", name.c_str());
          return false;
        }
        mask |= static_cast<uint8_t>(1u << static_cast<uint8_t>(op));
      }
      predicate->op_mask = mask;
    } else if (key == "t") {
      const size_t comma = value.find(',');
      const bool framed = value.size() >= 4 && value.front() == '[' &&
                          value.back() == ')' && comma != std::string::npos;
      double begin = 0.0;
      double end = -1.0;  // a value not framed as [a,b) fails the check below
      if (framed) {
        begin = tools::ParseTime("t", value.substr(1, comma - 1), kSecond);
        end = tools::ParseTime("t", value.substr(comma + 1, value.size() - comma - 2), kSecond);
      }
      if (end < begin) {
        std::fprintf(stderr, "error: bad time range '%s' (want t=[a,b))\n",
                     value.c_str());
        return false;
      }
      predicate->time_begin = FromSeconds(begin);
      predicate->time_end = FromSeconds(end);
    } else {
      std::fprintf(stderr, "error: unknown where key '%s'\n", key.c_str());
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  static const tools::FlagSpec kFlags[] = {
      {"where", 1, "<clauses>", "filter, e.g. pid=3|7,op=set,t=[1.5,30)"},
      {"group-by", 1, "callsite|pid|op", "aggregate rows by this key"},
      {"top", 1, "K", "render only the K biggest groups (default all)"},
      {"jobs", 1, "N", "worker threads (0 = one per core; default 0)"},
      {"format", 1, "text|json", "report format (default text)"},
  };
  const tools::ParsedArgs args = tools::ParseArgs(argc, argv, kFlags);
  if (!args.ok() || args.positionals().size() != 1) {
    if (!args.ok()) {
      std::fprintf(stderr, "error: %s\n", args.error().c_str());
    }
    tools::PrintUsage(stderr, argv[0], "<trace-file>", kFlags, kWhereHelp);
    return 2;
  }
  tools::OutputFormat format = tools::OutputFormat::kText;
  if (!tools::ParseFormatName(args.Value("format", 0, "text"), &format)) {
    std::fprintf(stderr, "error: unknown format %s\n", args.Value("format").c_str());
    return 2;
  }

  QueryOptions query;
  if (args.Has("where") && !ParseWhere(args.Value("where"), &query.predicate)) {
    return 2;
  }
  if (args.Has("group-by")) {
    const std::string by = args.Value("group-by");
    if (by == "callsite") {
      query.group_by = QueryGroupBy::kCallsite;
    } else if (by == "pid") {
      query.group_by = QueryGroupBy::kPid;
    } else if (by == "op") {
      query.group_by = QueryGroupBy::kOp;
    } else {
      std::fprintf(stderr, "error: unknown group-by key '%s'\n", by.c_str());
      return 2;
    }
  }
  query.top_k = static_cast<size_t>(args.UintValue("top", 0));

  const std::string& path = args.positionals()[0];
  TraceReadError read_error = TraceReadError::kIo;
  const auto reader = TraceChunkReader::Open(path, &read_error);
  if (!reader.has_value()) {
    tools::PrintTraceReadError(path, read_error);
    return 1;
  }

  std::vector<std::unique_ptr<AnalysisPass>> passes;
  passes.push_back(std::make_unique<QueryPass>(query, &reader->callsites()));

  PipelineOptions pipeline_options;
  pipeline_options.jobs = static_cast<size_t>(args.UintValue("jobs", 0));
  pipeline_options.stats_label = "tempoquery";
  PipelineRunner runner(pipeline_options);
  if (!runner.Run(*reader, passes, &read_error)) {
    tools::PrintTraceReadError(path, read_error);
    return 1;
  }
  QueryPass& pass = *static_cast<QueryPass*>(passes[0].get());

  if (format == tools::OutputFormat::kJson) {
    std::fputs(pass.RenderJson().c_str(), stdout);
  } else {
    tempo::TextRenderSink sink(stdout);
    pass.Render(sink);
  }
  // Pushdown effectiveness, on stderr so it never perturbs the report
  // byte-compare between worker counts.
  const PipelineStats& stats = runner.stats();
  std::fprintf(stderr,
               "# scanned %llu records in %llu chunks (%llu skipped), %llu bytes decoded\n",
               static_cast<unsigned long long>(stats.records),
               static_cast<unsigned long long>(stats.chunks),
               static_cast<unsigned long long>(stats.chunks_skipped),
               static_cast<unsigned long long>(stats.encoded_bytes));
  return 0;
}

// tracestat — runs the full analysis pipeline over a recorded trace file:
// summary, usage patterns, value histogram, origins, provenance, and an
// optional blame window.
//
// The analyses run as AnalysisPasses on the parallel streaming pipeline:
// the trace is consumed chunk by chunk (never fully materialized) by
// --jobs workers, and the ordered merge of partial states makes the output
// byte-identical for any worker count — `tracestat t.trc --jobs 8` prints
// exactly what `--jobs 1` does, just faster.

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "src/analysis/classify.h"
#include "src/analysis/histogram.h"
#include "src/analysis/latency.h"
#include "src/analysis/origins.h"
#include "src/analysis/pipeline.h"
#include "src/analysis/provenance.h"
#include "src/analysis/summary.h"
#include "src/trace/chunked.h"
#include "src/trace/file.h"
#include "tools/common.h"

int main(int argc, char** argv) {
  using namespace tempo;
  static const tools::FlagSpec kFlags[] = {
      {"jobs", 1, "N", "worker threads (0 = one per core; default 0)"},
      {"format", 1, "text|json", "report format (default text)"},
      {"blame", 2, "<start-s> <end-s>", "append a blame report for [start, end)"},
      {"user-only", 0, "", "value histogram: user-space timeouts only"},
      {"no-jiffies", 0, "", "value histogram: skip kernel jiffy quantisation"},
  };
  const tools::ParsedArgs args = tools::ParseArgs(argc, argv, kFlags);
  if (!args.ok() || args.positionals().size() != 1) {
    if (!args.ok()) {
      std::fprintf(stderr, "error: %s\n", args.error().c_str());
    }
    tools::PrintUsage(stderr, argv[0], "<trace-file>", kFlags);
    return 2;
  }
  tools::OutputFormat format = tools::OutputFormat::kText;
  if (!tools::ParseFormatName(args.Value("format", 0, "text"), &format)) {
    std::fprintf(stderr, "error: unknown format %s\n", args.Value("format").c_str());
    tools::PrintUsage(stderr, argv[0], "<trace-file>", kFlags);
    return 2;
  }
  const bool user_only = args.Has("user-only");
  const bool jiffies = !args.Has("no-jiffies");
  const double blame_start = args.TimeValue("blame", -1.0, kSecond, 0);
  const double blame_end = args.TimeValue("blame", -1.0, kSecond, 1);
  const size_t jobs = static_cast<size_t>(args.UintValue("jobs", 0));

  const std::string& path = args.positionals()[0];
  TraceReadError read_error = TraceReadError::kIo;
  const auto reader = TraceChunkReader::Open(path, &read_error);
  if (!reader.has_value()) {
    tools::PrintTraceReadError(path, read_error);
    return 1;
  }

  std::vector<std::unique_ptr<AnalysisPass>> passes;
  passes.push_back(std::make_unique<SummaryPass>(path));
  passes.push_back(std::make_unique<ClassifyPass>());
  HistogramOptions histogram_options;
  histogram_options.user_only = user_only;
  histogram_options.jiffy_quantise_kernel = jiffies;
  passes.push_back(std::make_unique<HistogramPass>(histogram_options, jiffies));
  OriginOptions origin_options;
  origin_options.min_percent = 0.5;
  passes.push_back(std::make_unique<OriginsPass>(&reader->callsites(), origin_options));
  passes.push_back(std::make_unique<ProvenancePass>(&reader->callsites()));
  passes.push_back(std::make_unique<LatencyPass>(&reader->callsites()));
  if (blame_start >= 0 && blame_end > blame_start) {
    passes.push_back(std::make_unique<BlamePass>(&reader->callsites(),
                                                 FromSeconds(blame_start),
                                                 FromSeconds(blame_end)));
  }

  PipelineOptions pipeline_options;
  pipeline_options.jobs = jobs;
  pipeline_options.stats_label = "tracestat";
  PipelineRunner runner(pipeline_options);
  if (!runner.Run(*reader, passes, &read_error)) {
    tools::PrintTraceReadError(path, read_error);
    return 1;
  }

  if (format == tools::OutputFormat::kJson) {
    JsonRenderSink sink(stdout);
    for (const auto& pass : passes) {
      pass->Render(sink);
    }
    // Storage-side stats (JSON only, so the text report stays stable for
    // the byte-compare tests): what the pipeline actually read from disk.
    const PipelineStats& stats = runner.stats();
    const double per_record =
        stats.records == 0 ? 0.0
                           : static_cast<double>(stats.encoded_bytes) /
                                 static_cast<double>(stats.records);
    const double ratio =
        stats.bytes == 0 ? 0.0
                         : static_cast<double>(stats.encoded_bytes) /
                               static_cast<double>(stats.bytes);
    char storage[512];
    std::snprintf(storage, sizeof(storage),
                  "version %u\nrecords %llu\nchunks_decoded %llu\n"
                  "chunks_skipped %llu\nencoded_bytes %llu\n"
                  "encoded_bytes_per_record %.3f\ncompression_ratio %.4f\n"
                  "mapped %d\n",
                  reader->version(),
                  static_cast<unsigned long long>(stats.records),
                  static_cast<unsigned long long>(stats.chunks),
                  static_cast<unsigned long long>(stats.chunks_skipped),
                  static_cast<unsigned long long>(stats.encoded_bytes), per_record,
                  ratio, reader->mapped() ? 1 : 0);
    sink.Section("storage", storage);
    sink.Finish();
  } else {
    TextRenderSink sink(stdout);
    for (const auto& pass : passes) {
      pass->Render(sink);
    }
  }
  return 0;
}

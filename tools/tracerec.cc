// tracerec — records one of the study's workloads to a binary trace file
// that trace2txt / tracestat / tempoquery can consume.
//
// Writes the chunked v2 format by default so the analysis pipeline can
// stream it in parallel; --v3 selects the columnar format (smaller
// files, zone-map and projection pushdown), --v1 keeps the legacy flat
// format for compatibility tests and old readers. --compress adds the
// TempoLz block codec on top of the v3 stripes — a further ~25% smaller
// on disk at roughly half the scan speed, meant for cold archives.

#include <cstdio>
#include <string>
#include <sys/stat.h>

#include "src/trace/file.h"
#include "src/trace/stream_writer.h"
#include "src/workloads/run.h"
#include "tools/common.h"

namespace {

// Size of `path`, or 0 when it cannot be measured.
uint64_t FileSize(const std::string& path) {
  struct stat st;
  if (::stat(path.c_str(), &st) != 0 || st.st_size < 0) {
    return 0;
  }
  return static_cast<uint64_t>(st.st_size);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace tempo;
  static const tools::FlagSpec kFlags[] = {
      {"v1", 0, "", "write the legacy flat v1 format"},
      {"v2", 0, "", "write the chunked v2 format (the default)"},
      {"v3", 0, "", "write the columnar v3 format"},
      {"compress", 0, "", "v3 only: block-compress chunks (TempoLz)"},
      {"chunk-records", 1, "N", "records per v2/v3 chunk (default 65536, max 1048576)"},
      {"stream", 0, "", "append records one at a time (streaming writer, v2/v3)"},
      {"format", 1, "text|json", "report format (default text)"},
  };
  const tools::ParsedArgs args = tools::ParseArgs(argc, argv, kFlags);
  const auto& positionals = args.positionals();
  if (!args.ok() || positionals.size() < 2 || positionals.size() > 4) {
    if (!args.ok()) {
      std::fprintf(stderr, "error: %s\n", args.error().c_str());
    }
    tools::PrintUsage(stderr, argv[0], "<workload> <output-file> [minutes] [seed]", kFlags,
                      WorkloadUsage("", "").c_str());
    return 2;
  }
  tools::OutputFormat format = tools::OutputFormat::kText;
  if (args.Has("format") && !tools::ParseFormatName(args.Value("format"), &format)) {
    std::fprintf(stderr, "error: unknown format %s\n", args.Value("format").c_str());
    return 2;
  }
  if (args.Has("v1") + args.Has("v2") + args.Has("v3") > 1) {
    std::fprintf(stderr, "error: --v1, --v2 and --v3 are mutually exclusive\n");
    return 2;
  }

  TraceWriteOptions write_options;
  if (args.Has("v1")) {
    write_options.version = kTraceFileVersion;
  } else if (args.Has("v3")) {
    write_options.version = kTraceFileVersionColumnar;
  }
  write_options.chunk_records = static_cast<uint32_t>(
      args.UintValue("chunk-records", kDefaultChunkRecords, 0, kMaxChunkRecords));
  if (args.Has("compress")) {
    if (write_options.version != kTraceFileVersionColumnar) {
      std::fprintf(stderr, "error: --compress requires --v3\n");
      return 2;
    }
    write_options.block_codec = BlockCodecId::kTempoLz;
  }

  if (args.Has("stream") && args.Has("v1")) {
    std::fprintf(stderr, "error: --stream writes chunked v2/v3 only\n");
    return 2;
  }

  WorkloadOptions options;
  options.duration = 30 * kMinute;
  options.seed = 2008;
  if (positionals.size() >= 3) {
    options.duration =
        FromSeconds(tools::ParseTime("minutes", positionals[2], kMinute, 0.0) * 60.0);
  }
  if (positionals.size() >= 4) {
    options.seed = tools::ParseUint("seed", positionals[3]);
  }

  const WorkloadEntry* workload = FindWorkload(positionals[0]);
  if (workload == nullptr) {
    std::fprintf(stderr, "error: unknown workload %s\n", positionals[0].c_str());
    return 2;
  }
  TraceRun run = workload->run(options);

  const std::string& output = positionals[1];
  if (args.Has("stream")) {
    // Record-at-a-time through the streaming writer: the output is
    // byte-identical to the WriteTraceFile path (pinned by the
    // tools_stream_identical ctests), and neither builds the whole file
    // image in memory. The records themselves are all in run.records: the
    // workload has finished before the first one is written.
    TraceStreamWriter writer(output, &run.callsites(), write_options);
    for (const TraceRecord& record : run.records) {
      writer.Append(record);
    }
    if (!writer.Close()) {
      std::fprintf(stderr, "error: cannot write %s\n", output.c_str());
      return 1;
    }
  } else if (!WriteTraceFile(output, run.records, run.callsites(), write_options)) {
    std::fprintf(stderr, "error: cannot write %s\n", output.c_str());
    return 1;
  }

  const uint64_t file_bytes = FileSize(output);
  const uint64_t fixed_bytes = run.records.size() * kEncodedRecordSize;
  const double per_record =
      run.records.empty() ? 0.0
                          : static_cast<double>(file_bytes) /
                                static_cast<double>(run.records.size());
  // File size relative to the fixed 48-byte-per-record encoding the
  // v1/v2 formats pay — the compression headline for v3.
  const double ratio = fixed_bytes == 0
                           ? 0.0
                           : static_cast<double>(file_bytes) /
                                 static_cast<double>(fixed_bytes);
  if (format == tools::OutputFormat::kJson) {
    std::printf("{\n");
    std::printf("  \"workload\": \"%s\",\n", run.label.c_str());
    std::printf("  \"output\": \"%s\",\n", output.c_str());
    std::printf("  \"version\": %u,\n", write_options.version);
    std::printf("  \"records\": %zu,\n", run.records.size());
    std::printf("  \"file_bytes\": %llu,\n",
                static_cast<unsigned long long>(file_bytes));
    std::printf("  \"bytes_per_record\": %.3f,\n", per_record);
    std::printf("  \"ratio_vs_fixed48\": %.4f,\n", ratio);
    std::printf("  \"simulated\": \"%s\"\n", FormatDuration(options.duration).c_str());
    std::printf("}\n");
  } else {
    std::printf("wrote %zu records (%s, %s simulated) to %s\n", run.records.size(),
                run.label.c_str(), FormatDuration(options.duration).c_str(),
                output.c_str());
    std::printf("  v%u, %llu bytes, %.1f bytes/record, %.2fx of fixed 48B records\n",
                write_options.version, static_cast<unsigned long long>(file_bytes),
                per_record, ratio);
  }
  return 0;
}

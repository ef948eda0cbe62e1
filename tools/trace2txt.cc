// trace2txt — converts a binary tempo trace file to text, one record per
// line (the "user-space program to read out the buffer and convert the
// trace into a textual format" of Section 3.2).
//
// Streams the file chunk by chunk, so a multi-gigabyte trace prints its
// first records immediately and never gets materialized in memory. All
// on-disk formats (flat v1, chunked v2, columnar v3) stream through the
// same TraceChunkReader; a v3 file with a codec this build does not know
// is reported as such, not as corruption.

#include <cstdint>
#include <cstdio>
#include <string>

#include "src/trace/chunked.h"
#include "src/trace/codec.h"
#include "src/trace/file.h"
#include "tools/common.h"

int main(int argc, char** argv) {
  using namespace tempo;
  static const tools::FlagSpec kFlags[] = {
      {"limit", 1, "N", "print at most N records (same as the positional limit)"},
  };
  const tools::ParsedArgs args = tools::ParseArgs(argc, argv, kFlags);
  if (!args.ok() || args.positionals().empty() || args.positionals().size() > 2) {
    if (!args.ok()) {
      std::fprintf(stderr, "error: %s\n", args.error().c_str());
    }
    tools::PrintUsage(stderr, argv[0], "<trace-file> [limit]", kFlags);
    return 2;
  }

  uint64_t limit = UINT64_MAX;
  if (args.positionals().size() >= 2) {
    limit = tools::ParseUint("limit", args.positionals()[1]);
  }
  limit = args.UintValue("limit", limit);

  const std::string& path = args.positionals()[0];
  TraceReadError read_error = TraceReadError::kIo;
  const auto reader = TraceChunkReader::Open(path, &read_error);
  if (!reader.has_value()) {
    tools::PrintTraceReadError(path, read_error);
    return 1;
  }

  TraceChunkReader::Cursor cursor = reader->MakeCursor();
  uint64_t printed = 0;
  for (size_t i = 0; i < reader->chunk_count() && printed < limit; ++i) {
    const auto chunk = cursor.Read(i);
    if (!cursor.ok()) {
      tools::PrintTraceReadError(path, cursor.error());
      return 1;
    }
    for (const TraceRecord& record : chunk) {
      if (printed >= limit) {
        break;
      }
      std::printf("%s\n", FormatRecord(record, reader->callsites()).c_str());
      ++printed;
    }
  }
  return 0;
}

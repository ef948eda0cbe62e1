// Reads a whole trace back the way every tempo tool reads a trace file:
// TraceChunkReader::Open, then a cursor over every chunk in order. A test
// that starts from in-memory bytes writes them to a file first.

#ifndef TEMPO_TESTS_TRACE_SWEEP_H_
#define TEMPO_TESTS_TRACE_SWEEP_H_

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "src/trace/chunked.h"

namespace tempo {

// Every record of a trace file and its call-site table, or the error that
// stopped the sweep.
struct Sweep {
  std::optional<TraceReadError> error;  // nullopt: the whole trace was read
  std::vector<TraceRecord> records;
  CallsiteRegistry callsites;

  bool ok() const { return !error.has_value(); }
};

inline Sweep SweepFile(const std::string& path) {
  Sweep sweep;
  TraceReadError error = TraceReadError::kIo;
  const auto reader = TraceChunkReader::Open(path, &error);
  if (!reader.has_value()) {
    sweep.error = error;
    return sweep;
  }
  sweep.callsites = reader->callsites();
  auto cursor = reader->MakeCursor();
  for (size_t i = 0; i < reader->chunk_count(); ++i) {
    const auto chunk = cursor.Read(i);
    if (!cursor.ok()) {
      sweep.error = cursor.error();
      return sweep;
    }
    sweep.records.insert(sweep.records.end(), chunk.begin(), chunk.end());
  }
  return sweep;
}

inline void WriteBytes(const std::string& path, const std::vector<uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

// Writes `bytes` to a file and sweeps it. ctest runs tests as parallel
// processes, so the file is named after this one.
inline Sweep SweepBytes(const std::vector<uint8_t>& bytes) {
  const std::string path =
      ::testing::TempDir() + "/tempo_sweep_" + std::to_string(::getpid()) + ".trc";
  WriteBytes(path, bytes);
  Sweep sweep = SweepFile(path);
  std::remove(path.c_str());
  return sweep;
}

}  // namespace tempo

#endif  // TEMPO_TESTS_TRACE_SWEEP_H_

// Shared command-line plumbing for the tempo tools.
//
// Every tool used to hand-roll its own argv loop; this header gives them
// one flag grammar (`--flag value`, `--flag=value`, multi-value flags like
// `--blame <start> <end>`), one usage renderer, the common `--format` and
// `--jobs` conventions, and one way to report trace-read failures with the
// TraceReadError taxonomy.

#ifndef TEMPO_TOOLS_COMMON_H_
#define TEMPO_TOOLS_COMMON_H_

#include <cfloat>
#include <cstdint>
#include <cstdio>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "src/sim/time.h"
#include "src/trace/file.h"

namespace tempo {
namespace tools {

// One accepted flag. `arity` is the number of values that follow it
// (0 for booleans, 2 for windows like --blame <start> <end>).
struct FlagSpec {
  const char* name;        // without the leading "--"
  int arity = 0;           // values consumed after the flag
  const char* values = ""; // usage placeholder, e.g. "N" or "<start-s> <end-s>"
  const char* help = "";
};

// The result of ParseArgs: positionals in order, flags by name.
// Repeated flags keep the last occurrence.
class ParsedArgs {
 public:
  bool ok() const { return error_.empty(); }
  const std::string& error() const { return error_; }
  const std::vector<std::string>& positionals() const { return positionals_; }

  bool Has(const std::string& flag) const { return flags_.count(flag) != 0; }

  // The index-th value of a flag, or `fallback` when the flag is absent.
  std::string Value(const std::string& flag, size_t index = 0,
                    const std::string& fallback = "") const;

  // The same, parsed by ParseUint / ParseDouble / ParseTime below, so a
  // malformed value prints "error: --<flag>: <reason>" and exits 2.
  uint64_t UintValue(const std::string& flag, uint64_t fallback, size_t index = 0,
                     uint64_t max = UINT64_MAX) const;
  double DoubleValue(const std::string& flag, double fallback, size_t index = 0) const;
  double TimeValue(const std::string& flag, double fallback, SimDuration unit,
                   size_t index = 0, double min = -DBL_MAX) const;

 private:
  friend ParsedArgs ParseArgs(int argc, char** argv, std::span<const FlagSpec> specs);

  // The index-th value of a flag, or nullptr when the flag is absent.
  const std::string* Find(const std::string& flag, size_t index) const;

  std::vector<std::string> positionals_;
  std::map<std::string, std::vector<std::string>> flags_;
  std::string error_;
};

// Parses all of `text` as a number for the value called `name` ("--jobs"
// for a flag, "minutes" for a positional). A malformed value is a usage
// error: these print "error: <name>: <reason>" and exit 2. ParseUint takes
// plain decimal digits only (no sign, no blanks) up to `max`, the largest
// value the destination holds; ParseInt also takes a leading '-', from
// `min` to `max`; ParseDouble takes any finite decimal number from `min`
// to `max`.
uint64_t ParseUint(const std::string& name, const std::string& text,
                   uint64_t max = UINT64_MAX);
int64_t ParseInt(const std::string& name, const std::string& text, int64_t min,
                 int64_t max);
double ParseDouble(const std::string& name, const std::string& text,
                   double min = -DBL_MAX, double max = DBL_MAX);

// The one parse for a time: a count of `unit`s (kSecond, kMinute, ...)
// through ParseDouble, bounded to `min` and to the whole units a
// SimDuration holds either side of zero, so converting it cannot overflow.
double ParseTime(const std::string& name, const std::string& text, SimDuration unit,
                 double min = -DBL_MAX);

// Parses argv[1..] against `specs`. Unknown flags and missing values make
// ok() false with a one-line reason; the tool should print the error and
// its usage, then exit 2.
ParsedArgs ParseArgs(int argc, char** argv, std::span<const FlagSpec> specs);

// Prints "usage: <argv0> <positionals> [options]" plus one aligned line
// per flag, and an optional free-form epilogue (e.g. a workload list).
void PrintUsage(std::FILE* out, const char* argv0, const char* positionals,
                std::span<const FlagSpec> specs, const char* epilogue = nullptr);

// The common report-format convention. Tools with extra formats (tempostat
// has prom/all for metric snapshots) layer them on top of ParseFormatName.
enum class OutputFormat {
  kText,
  kJson,
};

// Maps "text"/"json" to OutputFormat; false for anything else.
bool ParseFormatName(const std::string& name, OutputFormat* format);

// The common `--queue <name>` convention for selecting a TimerQueue
// backend: one spec and one validator, so every tool and bench accepts the
// same names and rejects unknown ones identically.
FlagSpec QueueFlag();

// Resolves the --queue flag against TimerQueueNames(). Returns `fallback`
// when the flag is absent; empty string (after printing an error naming
// the valid backends) for an unknown name.
std::string ResolveQueueName(const ParsedArgs& args, const std::string& fallback);

// "error: cannot read trace file <path>: <reason>\n" on stderr, with the
// reason from TraceReadErrorName.
void PrintTraceReadError(const std::string& path, TraceReadError error);

// Deterministic probe clock for obs::SetProbeClock: advances one "cycle"
// per read, so a probed region's cost equals the number of probe-clock
// reads it contains, stable across machines and runs. A plain counter,
// like the probe state itself: install it only where probes run on one
// thread. tempostat installs it unless given --wall; tempotop always does
// outside --cluster.
uint64_t VirtualCycleClock();

}  // namespace tools
}  // namespace tempo

#endif  // TEMPO_TOOLS_COMMON_H_

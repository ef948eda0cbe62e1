#include "tools/common.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <cstring>

#include "src/timer/queue.h"

namespace tempo {
namespace tools {

namespace {

const FlagSpec* FindSpec(std::span<const FlagSpec> specs, const std::string& name) {
  for (const FlagSpec& spec : specs) {
    if (name == spec.name) {
      return &spec;
    }
  }
  return nullptr;
}

[[noreturn]] void UsageError(const std::string& name, const std::string& reason) {
  std::fprintf(stderr, "error: %s: %s\n", name.c_str(), reason.c_str());
  std::exit(2);
}

// Parses all of `text` as a T (from_chars takes no blanks and no '+', and
// no '-' for an unsigned T), or exits with a usage error naming `name`.
template <typename T>
T ParseNumber(const std::string& name, const std::string& text, const char* kind) {
  if (text.empty()) {
    UsageError(name, "empty value");
  }
  T value{};
  const char* last = text.data() + text.size();
  const auto [end, error] = std::from_chars(text.data(), last, value);
  if (error == std::errc::invalid_argument || end != last) {
    UsageError(name, "'" + text + "' is not " + kind);
  }
  if (error == std::errc::result_out_of_range) {
    UsageError(name, "'" + text + "' is out of range");
  }
  return value;
}

}  // namespace

const std::string* ParsedArgs::Find(const std::string& flag, size_t index) const {
  const auto it = flags_.find(flag);
  return it == flags_.end() || index >= it->second.size() ? nullptr : &it->second[index];
}

std::string ParsedArgs::Value(const std::string& flag, size_t index,
                              const std::string& fallback) const {
  const std::string* text = Find(flag, index);
  return text == nullptr ? fallback : *text;
}

uint64_t ParseUint(const std::string& name, const std::string& text, uint64_t max) {
  const uint64_t value = ParseNumber<uint64_t>(name, text, "an unsigned integer");
  if (value > max) {
    UsageError(name, "'" + text + "' is out of range (max " + std::to_string(max) + ")");
  }
  return value;
}

int64_t ParseInt(const std::string& name, const std::string& text, int64_t min,
                 int64_t max) {
  const int64_t value = ParseNumber<int64_t>(name, text, "an integer");
  if (value < min || value > max) {
    const bool low = value < min;
    UsageError(name, "'" + text + "' is out of range (" + (low ? "min " : "max ") +
                         std::to_string(low ? min : max) + ")");
  }
  return value;
}

double ParseDouble(const std::string& name, const std::string& text, double min,
                   double max) {
  const double value = ParseNumber<double>(name, text, "a number");
  if (!std::isfinite(value)) {
    UsageError(name, "'" + text + "' is not finite");
  }
  if (value < min || value > max) {
    const bool low = value < min;
    char bound[48];
    std::snprintf(bound, sizeof(bound), "%s %g", low ? "min" : "max", low ? min : max);
    UsageError(name, "'" + text + "' is out of range (" + bound + ")");
  }
  return value;
}

double ParseTime(const std::string& name, const std::string& text, SimDuration unit,
                 double min) {
  const double most = static_cast<double>(INT64_MAX / unit);
  return ParseDouble(name, text, std::max(min, -most), most);
}

uint64_t ParsedArgs::UintValue(const std::string& flag, uint64_t fallback, size_t index,
                               uint64_t max) const {
  const std::string* text = Find(flag, index);
  return text == nullptr ? fallback : ParseUint("--" + flag, *text, max);
}

double ParsedArgs::DoubleValue(const std::string& flag, double fallback,
                               size_t index) const {
  const std::string* text = Find(flag, index);
  return text == nullptr ? fallback : ParseDouble("--" + flag, *text);
}

double ParsedArgs::TimeValue(const std::string& flag, double fallback, SimDuration unit,
                             size_t index, double min) const {
  const std::string* text = Find(flag, index);
  return text == nullptr ? fallback : ParseTime("--" + flag, *text, unit, min);
}

ParsedArgs ParseArgs(int argc, char** argv, std::span<const FlagSpec> specs) {
  ParsedArgs out;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--", 2) != 0 || arg[2] == '\0') {
      out.positionals_.emplace_back(arg);
      continue;
    }
    std::string name = arg + 2;
    std::string inline_value;
    bool has_inline = false;
    const size_t eq = name.find('=');
    if (eq != std::string::npos) {
      inline_value = name.substr(eq + 1);
      name.resize(eq);
      has_inline = true;
    }
    const FlagSpec* spec = FindSpec(specs, name);
    if (spec == nullptr) {
      out.error_ = "unknown flag --" + name;
      return out;
    }
    std::vector<std::string> values;
    if (has_inline) {
      if (spec->arity != 1) {
        out.error_ = "--" + name + "=... takes exactly one value";
        return out;
      }
      values.push_back(std::move(inline_value));
    } else {
      for (int v = 0; v < spec->arity; ++v) {
        if (i + 1 >= argc) {
          out.error_ = "--" + name + " expects " + std::to_string(spec->arity) +
                       (spec->arity == 1 ? " value" : " values");
          return out;
        }
        values.emplace_back(argv[++i]);
      }
    }
    out.flags_[name] = std::move(values);
  }
  return out;
}

void PrintUsage(std::FILE* out, const char* argv0, const char* positionals,
                std::span<const FlagSpec> specs, const char* epilogue) {
  std::fprintf(out, "usage: %s %s%s\n", argv0, positionals,
               specs.empty() ? "" : " [options]");
  for (const FlagSpec& spec : specs) {
    std::string left = std::string("--") + spec.name;
    if (spec.values[0] != '\0') {
      left += " ";
      left += spec.values;
    }
    std::fprintf(out, "  %-28s %s\n", left.c_str(), spec.help);
  }
  if (epilogue != nullptr) {
    std::fputs(epilogue, out);
  }
}

bool ParseFormatName(const std::string& name, OutputFormat* format) {
  if (name == "text") {
    *format = OutputFormat::kText;
    return true;
  }
  if (name == "json") {
    *format = OutputFormat::kJson;
    return true;
  }
  return false;
}

FlagSpec QueueFlag() {
  return FlagSpec{"queue", 1, "<name>",
                  "TimerQueue backend (heap, tree, hashed_wheel, "
                  "hierarchical_wheel, lawn)"};
}

std::string ResolveQueueName(const ParsedArgs& args, const std::string& fallback) {
  const std::string name = args.Value("queue", 0, fallback);
  std::string valid;
  for (const std::string& candidate : TimerQueueNames()) {
    if (name == candidate) {
      return name;
    }
    if (!valid.empty()) {
      valid += ", ";
    }
    valid += candidate;
  }
  std::fprintf(stderr, "error: unknown timer queue '%s' (valid: %s)\n", name.c_str(),
               valid.c_str());
  return std::string();
}

void PrintTraceReadError(const std::string& path, TraceReadError error) {
  std::fprintf(stderr, "error: cannot read trace file %s: %s\n", path.c_str(),
               TraceReadErrorName(error));
}

uint64_t VirtualCycleClock() {
  static uint64_t cycles = 0;
  return ++cycles;
}

}  // namespace tools
}  // namespace tempo

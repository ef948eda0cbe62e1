// tempotrace — exports a recorded trace as Chrome trace-event JSON, the
// format the Perfetto UI (ui.perfetto.dev) and chrome://tracing open
// directly. One "X" duration span per pending-timer interval (set ->
// expire/cancel/re-arm), an "i" instant per cancellation, and two counter
// tracks: live-timer depth at every transition and windowed firing-slack
// p99. Reads any trace format (v1/v2/v3), chunk by chunk from a
// TraceChunkReader cursor, folding the records into episodes as it goes.
//
// --check re-reads the written file through a strict JSON parser and
// verifies the trace-event schema (pid/tid/ts/ph on every event, dur on
// every complete event), so a ctest can gate "the export actually opens".

#include <algorithm>
#include <cctype>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/analysis/latency.h"
#include "src/analysis/lifetimes.h"
#include "src/obs/snapshot.h"
#include "src/sim/time.h"
#include "src/trace/chunked.h"
#include "tools/common.h"

namespace tempo {
namespace {

// Microseconds with nanosecond precision — the trace-event clock unit.
std::string Us(double ns) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.3f", ns / 1000.0);
  return buf;
}

// Us(to - from), signed, without overflowing for any two decoded times.
std::string UsBetween(SimTime from, SimTime to) {
  const double ns = static_cast<double>(Distance(to, from));
  return Us(to >= from ? ns : -ns);
}

const char* EndName(EpisodeEnd end) {
  switch (end) {
    case EpisodeEnd::kExpired:
      return "expired";
    case EpisodeEnd::kCanceled:
      return "canceled";
    case EpisodeEnd::kReset:
      return "re-armed";
    case EpisodeEnd::kOpen:
      return "open";
  }
  return "?";
}

struct Event {
  SimTime ts = 0;    // sort key; the emitted ts is Us(ts)
  uint64_t seq = 0;  // insertion order breaks ts ties deterministically
  std::string body;  // complete JSON object
};

// ---------------------------------------------------------------------------
// Minimal strict JSON DOM, just enough to validate what this tool writes
// (and reject what it should not have written).

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;

  const JsonValue* Find(const char* key) const {
    for (const auto& [k, v] : object) {
      if (k == key) {
        return &v;
      }
    }
    return nullptr;
  }
};

class JsonParser {
 public:
  JsonParser(const char* data, size_t size) : p_(data), end_(data + size) {}

  bool Parse(JsonValue* out) {
    SkipWs();
    if (!ParseValue(out)) {
      return false;
    }
    SkipWs();
    return p_ == end_;  // trailing garbage is a malformed file
  }

 private:
  void SkipWs() {
    while (p_ != end_ && (*p_ == ' ' || *p_ == '\t' || *p_ == '\n' || *p_ == '\r')) {
      ++p_;
    }
  }
  bool Literal(const char* lit) {
    const size_t n = std::strlen(lit);
    if (static_cast<size_t>(end_ - p_) < n || std::strncmp(p_, lit, n) != 0) {
      return false;
    }
    p_ += n;
    return true;
  }
  bool ParseValue(JsonValue* out) {
    if (p_ == end_) {
      return false;
    }
    switch (*p_) {
      case '{':
        return ParseObject(out);
      case '[':
        return ParseArray(out);
      case '"':
        out->kind = JsonValue::Kind::kString;
        return ParseString(&out->string);
      case 't':
        out->kind = JsonValue::Kind::kBool;
        return Literal("true");
      case 'f':
        out->kind = JsonValue::Kind::kBool;
        return Literal("false");
      case 'n':
        out->kind = JsonValue::Kind::kNull;
        return Literal("null");
      default:
        return ParseNumber(out);
    }
  }
  bool ParseString(std::string* out) {
    if (p_ == end_ || *p_ != '"') {
      return false;
    }
    ++p_;
    while (p_ != end_ && *p_ != '"') {
      if (*p_ == '\\') {
        ++p_;
        if (p_ == end_) {
          return false;
        }
        switch (*p_) {
          case '"':
            *out += '"';
            break;
          case '\\':
            *out += '\\';
            break;
          case '/':
            *out += '/';
            break;
          case 'n':
            *out += '\n';
            break;
          case 't':
            *out += '\t';
            break;
          case 'r':
            *out += '\r';
            break;
          case 'b':
          case 'f':
            *out += ' ';
            break;
          case 'u': {
            for (int i = 0; i < 4; ++i) {
              ++p_;
              if (p_ == end_ || !std::isxdigit(static_cast<unsigned char>(*p_))) {
                return false;
              }
            }
            *out += '?';  // validation only; the code point itself is moot
            break;
          }
          default:
            return false;
        }
        ++p_;
      } else {
        *out += *p_++;
      }
    }
    if (p_ == end_) {
      return false;
    }
    ++p_;  // closing quote
    return true;
  }
  bool ParseNumber(JsonValue* out) {
    const char* start = p_;
    if (p_ != end_ && (*p_ == '-' || *p_ == '+')) {
      ++p_;
    }
    bool digits = false;
    while (p_ != end_ && (std::isdigit(static_cast<unsigned char>(*p_)) || *p_ == '.' ||
                          *p_ == 'e' || *p_ == 'E' || *p_ == '-' || *p_ == '+')) {
      digits = digits || std::isdigit(static_cast<unsigned char>(*p_));
      ++p_;
    }
    if (!digits) {
      return false;
    }
    out->kind = JsonValue::Kind::kNumber;
    out->number = std::strtod(std::string(start, p_).c_str(), nullptr);
    return true;
  }
  bool ParseArray(JsonValue* out) {
    out->kind = JsonValue::Kind::kArray;
    ++p_;  // '['
    SkipWs();
    if (p_ != end_ && *p_ == ']') {
      ++p_;
      return true;
    }
    while (true) {
      JsonValue v;
      if (!ParseValue(&v)) {
        return false;
      }
      out->array.push_back(std::move(v));
      SkipWs();
      if (p_ == end_) {
        return false;
      }
      if (*p_ == ']') {
        ++p_;
        return true;
      }
      if (*p_ != ',') {
        return false;
      }
      ++p_;
      SkipWs();
    }
  }
  bool ParseObject(JsonValue* out) {
    out->kind = JsonValue::Kind::kObject;
    ++p_;  // '{'
    SkipWs();
    if (p_ != end_ && *p_ == '}') {
      ++p_;
      return true;
    }
    while (true) {
      std::string key;
      if (!ParseString(&key)) {
        return false;
      }
      SkipWs();
      if (p_ == end_ || *p_ != ':') {
        return false;
      }
      ++p_;
      SkipWs();
      JsonValue v;
      if (!ParseValue(&v)) {
        return false;
      }
      out->object.emplace_back(std::move(key), std::move(v));
      SkipWs();
      if (p_ == end_) {
        return false;
      }
      if (*p_ == '}') {
        ++p_;
        return true;
      }
      if (*p_ != ',') {
        return false;
      }
      ++p_;
      SkipWs();
    }
  }

  const char* p_;
  const char* end_;
};

// Validates the written file against the trace-event schema: a top-level
// object with a non-empty traceEvents array whose every element carries
// numeric pid/tid/ts and a string ph, and whose complete ("X") events
// carry a numeric dur. Returns an empty string on success, else the first
// violation.
std::string ValidateTraceEventFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return "cannot open " + path;
  }
  std::string bytes;
  char buf[1 << 16];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    bytes.append(buf, n);
  }
  std::fclose(f);

  JsonValue root;
  JsonParser parser(bytes.data(), bytes.size());
  if (!parser.Parse(&root)) {
    return "malformed JSON";
  }
  if (root.kind != JsonValue::Kind::kObject) {
    return "top level is not an object";
  }
  const JsonValue* events = root.Find("traceEvents");
  if (events == nullptr || events->kind != JsonValue::Kind::kArray) {
    return "missing traceEvents array";
  }
  if (events->array.empty()) {
    return "traceEvents is empty";
  }
  for (size_t i = 0; i < events->array.size(); ++i) {
    const JsonValue& e = events->array[i];
    char where[64];
    std::snprintf(where, sizeof(where), "traceEvents[%zu]", i);
    if (e.kind != JsonValue::Kind::kObject) {
      return std::string(where) + " is not an object";
    }
    for (const char* field : {"pid", "tid", "ts"}) {
      const JsonValue* v = e.Find(field);
      if (v == nullptr || v->kind != JsonValue::Kind::kNumber) {
        return std::string(where) + " lacks numeric " + field;
      }
    }
    const JsonValue* ph = e.Find("ph");
    if (ph == nullptr || ph->kind != JsonValue::Kind::kString || ph->string.size() != 1) {
      return std::string(where) + " lacks one-char ph";
    }
    if (ph->string == "X") {
      const JsonValue* dur = e.Find("dur");
      if (dur == nullptr || dur->kind != JsonValue::Kind::kNumber) {
        return std::string(where) + " is complete (X) but lacks numeric dur";
      }
    }
  }
  return "";
}

int Run(int argc, char** argv) {
  static const tools::FlagSpec kFlags[] = {
      {"window-ms", 1, "N", "slack-p99 counter window (default 1000)"},
      {"check", 0, "", "re-read the output and validate the event schema"},
  };
  const tools::ParsedArgs args = tools::ParseArgs(argc, argv, kFlags);
  if (!args.ok() || args.positionals().empty() || args.positionals().size() > 2) {
    if (!args.ok()) {
      std::fprintf(stderr, "error: %s\n", args.error().c_str());
    }
    tools::PrintUsage(stderr, argv[0], "<trace-file> [out.json]", kFlags,
                      "Exports Chrome trace-event / Perfetto JSON.\n"
                      "Default output: <trace-file>.json\n");
    return 2;
  }
  const std::string& path = args.positionals()[0];
  const std::string out_path =
      args.positionals().size() > 1 ? args.positionals()[1] : path + ".json";
  const SimDuration window =
      FromMilliseconds(args.TimeValue("window-ms", 1000, kMillisecond, 0, 0.0));
  if (window <= 0) {
    std::fprintf(stderr, "error: --window-ms must be positive\n");
    return 2;
  }

  TraceReadError read_error = TraceReadError::kIo;
  const auto reader = TraceChunkReader::Open(path, &read_error);
  if (!reader.has_value()) {
    tools::PrintTraceReadError(path, read_error);
    return 1;
  }

  // Episodes are folded chunk by chunk; the records are never held whole.
  EpisodeBuilder builder;
  TraceChunkReader::Cursor cursor = reader->MakeCursor();
  for (size_t i = 0; i < reader->chunk_count(); ++i) {
    const std::span<const TraceRecord> chunk = cursor.Read(i);
    if (!cursor.ok()) {
      tools::PrintTraceReadError(path, cursor.error());
      return 1;
    }
    builder.Accumulate(chunk);
  }
  const std::vector<Episode> episodes = std::move(builder).Finish();

  std::vector<Event> events;
  events.reserve(episodes.size() * 3);
  uint64_t seq = 0;
  auto add = [&](SimTime ts, std::string body) {
    events.push_back(Event{ts, seq++, std::move(body)});
  };

  // Process/thread names so the Perfetto track labels read like the
  // workload, not like bare ids.
  std::map<Pid, bool> pids_seen;
  for (const Episode& e : episodes) {
    if (pids_seen.emplace(e.pid, true).second) {
      char body[128];
      std::snprintf(body, sizeof(body),
                    "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%d,\"tid\":0,"
                    "\"ts\":0,\"args\":{\"name\":\"%s\"}}",
                    e.pid, e.pid == kKernelPid ? "kernel" : "process");
      add(0, body);
    }
  }

  std::map<SimTime, int64_t> depth_delta;
  std::map<int64_t, SlackHist> window_slack;  // window index -> fired slacks
  for (const Episode& e : episodes) {
    const std::string name = obs::JsonEscape(reader->callsites().Name(e.callsite));
    std::string body = "{\"name\":\"" + name + "\",\"cat\":\"timer\",\"ph\":\"X\"";
    char fixed[256];
    std::snprintf(fixed, sizeof(fixed),
                  ",\"pid\":%d,\"tid\":%d,\"ts\":%s,\"dur\":%s", e.pid, e.tid,
                  Us(e.set_time).c_str(), UsBetween(e.set_time, e.end_time).c_str());
    body += fixed;
    const SimTime requested = SaturatingAdd(e.set_time, std::max<SimDuration>(e.timeout, 0));
    char arg[256];
    std::snprintf(arg, sizeof(arg),
                  ",\"args\":{\"timer\":%" PRIu64 ",\"timeout_ms\":%.6f,\"end\":\"%s\"",
                  e.timer, ToMilliseconds(e.timeout), EndName(e.end));
    body += arg;
    if (e.end == EpisodeEnd::kExpired) {
      const uint64_t slack = e.end_time > requested ? Distance(e.end_time, requested) : 0;
      std::snprintf(arg, sizeof(arg), ",\"slack_ms\":%.6f",
                    static_cast<double>(slack) / static_cast<double>(kMillisecond));
      body += arg;
      window_slack[e.end_time / window].Record(slack);
    }
    body += "}}";
    add(e.set_time, std::move(body));

    if (e.end == EpisodeEnd::kCanceled) {
      char inst[256];
      std::snprintf(inst, sizeof(inst),
                    "{\"name\":\"cancel %s\",\"cat\":\"timer\",\"ph\":\"i\",\"s\":\"t\","
                    "\"pid\":%d,\"tid\":%d,\"ts\":%s}",
                    name.c_str(), e.pid, e.tid, Us(e.end_time).c_str());
      add(e.end_time, inst);
    }

    depth_delta[e.set_time] += 1;
    depth_delta[e.end_time] -= 1;
  }

  int64_t depth = 0;
  for (const auto& [ts, delta] : depth_delta) {
    depth += delta;
    char body[192];
    std::snprintf(body, sizeof(body),
                  "{\"name\":\"live_timers\",\"ph\":\"C\",\"pid\":0,\"tid\":0,"
                  "\"ts\":%s,\"args\":{\"pending\":%" PRId64 "}}",
                  Us(ts).c_str(), depth);
    add(ts, body);
  }

  // One sample per window that holds a fired timer, and a 0 at the next
  // window when it holds none but a later one does: a counter keeps its
  // value until the next sample, so a run of empty windows needs only its
  // first.
  auto add_slack = [&](int64_t w, uint64_t p99) {
    char body[192];
    std::snprintf(body, sizeof(body),
                  "{\"name\":\"slack_p99\",\"ph\":\"C\",\"pid\":0,\"tid\":0,"
                  "\"ts\":%s,\"args\":{\"ms\":%.6f}}",
                  Us(w * window).c_str(),
                  static_cast<double>(p99) / static_cast<double>(kMillisecond));
    add(w * window, body);
  };
  for (auto it = window_slack.begin(); it != window_slack.end(); ++it) {
    add_slack(it->first, it->second.QuantileNs(0.99));
    const auto next = std::next(it);
    if (next != window_slack.end() && next->first != it->first + 1) {
      add_slack(it->first + 1, 0);
    }
  }

  std::stable_sort(events.begin(), events.end(), [](const Event& x, const Event& y) {
    return x.ts != y.ts ? x.ts < y.ts : x.seq < y.seq;
  });

  std::FILE* out = std::fopen(out_path.c_str(), "wb");
  if (out == nullptr) {
    std::fprintf(stderr, "error: cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n", out);
  for (size_t i = 0; i < events.size(); ++i) {
    std::fputs(events[i].body.c_str(), out);
    std::fputs(i + 1 == events.size() ? "\n" : ",\n", out);
  }
  std::fputs("]}\n", out);
  std::fclose(out);

  std::fprintf(stderr, "%s: %zu events (%zu spans) -> %s\n", path.c_str(), events.size(),
               episodes.size(), out_path.c_str());

  if (args.Has("check")) {
    const std::string violation = ValidateTraceEventFile(out_path);
    if (!violation.empty()) {
      std::fprintf(stderr, "error: schema check failed: %s\n", violation.c_str());
      return 1;
    }
    std::fprintf(stderr, "schema check ok\n");
  }
  return 0;
}

}  // namespace
}  // namespace tempo

int main(int argc, char** argv) { return tempo::Run(argc, argv); }

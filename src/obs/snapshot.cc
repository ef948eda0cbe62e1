#include "src/obs/snapshot.h"

#include <algorithm>
#include <cinttypes>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

namespace tempo {
namespace obs {

namespace {

void Append(std::string* out, const char* fmt, ...) {
  char buf[512];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  out->append(buf);
}

// Prometheus label-value escaping: backslash, double quote and newline
// must be escaped inside the quoted value (exposition format rules);
// anything else passes through.
std::string LabelValueEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '"':
        out += "\\\"";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
  return out;
}

// name{k="v",k2="v2"} — empty label set renders as the bare name.
std::string LabeledName(const SnapshotEntry& e) {
  if (e.labels.empty()) {
    return e.name;
  }
  std::string out = e.name + "{";
  for (size_t i = 0; i < e.labels.size(); ++i) {
    if (i > 0) {
      out += ",";
    }
    out += e.labels[i].first + "=\"" + LabelValueEscape(e.labels[i].second) + "\"";
  }
  out += "}";
  return out;
}

// Trims trailing zeros so quantiles render as "12", "12.5", "12.25".
std::string Compact(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3f", v);
  char* dot = std::strchr(buf, '.');
  if (dot != nullptr) {
    char* end = buf + std::strlen(buf) - 1;
    while (end > dot && *end == '0') {
      *end-- = '\0';
    }
    if (end == dot) {
      *end = '\0';
    }
  }
  return buf;
}

}  // namespace

// JSON string escaping. Unlike the Prometheus exposition format (three
// escapes), JSON forbids *every* control character below 0x20 inside a
// string, so the remaining ones get the \u00XX form.
std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\b':
        out += "\\b";
        break;
      case '\f':
        out += "\\f";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          Append(&out, "\\u%04x", c);
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string RenderText(const MetricsSnapshot& snapshot) {
  // First pass: column width for the labeled names.
  size_t width = 0;
  for (const SnapshotEntry& e : snapshot.entries) {
    width = std::max(width, LabeledName(e).size());
  }
  std::string out;
  for (const SnapshotEntry& e : snapshot.entries) {
    const std::string name = LabeledName(e);
    Append(&out, "%-*s  ", static_cast<int>(width), name.c_str());
    switch (e.kind) {
      case SnapshotEntry::Kind::kCounter:
        Append(&out, "%" PRId64 "\n", e.value);
        break;
      case SnapshotEntry::Kind::kGauge:
        Append(&out, "%" PRId64 "\n", e.value);
        break;
      case SnapshotEntry::Kind::kHistogram:
        Append(&out, "count=%" PRIu64 " sum=%" PRIu64 " min=%" PRIu64 " max=%" PRIu64
                     " mean=%s p50=%s p90=%s p99=%s\n",
               e.count, e.sum, e.min, e.max,
               Compact(e.count == 0 ? 0.0
                                    : static_cast<double>(e.sum) /
                                          static_cast<double>(e.count))
                   .c_str(),
               Compact(e.p50).c_str(), Compact(e.p90).c_str(), Compact(e.p99).c_str());
        break;
    }
  }
  return out;
}

std::string RenderJson(const MetricsSnapshot& snapshot) {
  std::string out = "{\"metrics\":[";
  bool first = true;
  for (const SnapshotEntry& e : snapshot.entries) {
    if (!first) {
      out += ",";
    }
    first = false;
    out += "{\"name\":\"" + JsonEscape(e.name) + "\"";
    if (!e.labels.empty()) {
      out += ",\"labels\":{";
      for (size_t i = 0; i < e.labels.size(); ++i) {
        if (i > 0) {
          out += ",";
        }
        out += "\"" + JsonEscape(e.labels[i].first) + "\":\"" +
               JsonEscape(e.labels[i].second) + "\"";
      }
      out += "}";
    }
    switch (e.kind) {
      case SnapshotEntry::Kind::kCounter:
        Append(&out, ",\"type\":\"counter\",\"value\":%" PRId64, e.value);
        break;
      case SnapshotEntry::Kind::kGauge:
        Append(&out, ",\"type\":\"gauge\",\"value\":%" PRId64, e.value);
        break;
      case SnapshotEntry::Kind::kHistogram:
        Append(&out,
               ",\"type\":\"histogram\",\"count\":%" PRIu64 ",\"sum\":%" PRIu64
               ",\"min\":%" PRIu64 ",\"max\":%" PRIu64
               ",\"p50\":%s,\"p90\":%s,\"p99\":%s",
               e.count, e.sum, e.min, e.max, Compact(e.p50).c_str(),
               Compact(e.p90).c_str(), Compact(e.p99).c_str());
        break;
    }
    out += "}";
  }
  out += "]}";
  return out;
}

std::string RenderPrometheus(const MetricsSnapshot& snapshot) {
  std::string out;
  std::string last_name;
  for (const SnapshotEntry& e : snapshot.entries) {
    // Counters keep Prometheus naming conventions without forcing every
    // call site to spell the suffix.
    std::string name = e.name;
    const char* type = "gauge";
    if (e.kind == SnapshotEntry::Kind::kCounter) {
      type = "counter";
      if (name.size() < 6 || name.compare(name.size() - 6, 6, "_total") != 0) {
        name += "_total";
      }
    } else if (e.kind == SnapshotEntry::Kind::kHistogram) {
      type = "histogram";
    }
    if (name != last_name) {
      if (!e.help.empty()) {
        out += "# HELP " + name + " " + e.help + "\n";
      }
      out += "# TYPE " + name + " " + std::string(type) + "\n";
      last_name = name;
    }

    std::string labels;
    for (const auto& [k, v] : e.labels) {
      if (!labels.empty()) {
        labels += ",";
      }
      labels += k + "=\"" + LabelValueEscape(v) + "\"";
    }

    if (e.kind != SnapshotEntry::Kind::kHistogram) {
      out += name;
      if (!labels.empty()) {
        out += "{" + labels + "}";
      }
      Append(&out, " %" PRId64 "\n", e.value);
      continue;
    }

    // Histogram: cumulative buckets, then +Inf, sum and count.
    for (const auto& [upper, cumulative] : e.cumulative_buckets) {
      out += name + "_bucket{" + labels + (labels.empty() ? "" : ",");
      Append(&out, "le=\"%" PRIu64 "\"} %" PRIu64 "\n", upper, cumulative);
    }
    out += name + "_bucket{" + labels + (labels.empty() ? "" : ",") + "le=\"+Inf\"} ";
    Append(&out, "%" PRIu64 "\n", e.count);
    out += name + "_sum";
    if (!labels.empty()) {
      out += "{" + labels + "}";
    }
    Append(&out, " %" PRIu64 "\n", e.sum);
    out += name + "_count";
    if (!labels.empty()) {
      out += "{" + labels + "}";
    }
    Append(&out, " %" PRIu64 "\n", e.count);
  }
  return out;
}

namespace {

bool IsNameChar(char c, bool first) {
  if ((c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' || c == ':') {
    return true;
  }
  return !first && c >= '0' && c <= '9';
}

bool Fail(std::string* error, size_t line_no, const std::string& what) {
  if (error != nullptr) {
    *error = "line " + std::to_string(line_no) + ": " + what;
  }
  return false;
}

bool ParseSampleLine(const std::string& line, size_t line_no, PromSample* sample,
                     std::string* error) {
  size_t i = 0;
  const size_t n = line.size();
  while (i < n && IsNameChar(line[i], i == 0)) {
    ++i;
  }
  if (i == 0) {
    return Fail(error, line_no, "expected metric name");
  }
  sample->name = line.substr(0, i);
  if (i < n && line[i] == '{') {
    ++i;
    while (i < n && line[i] != '}') {
      size_t key_start = i;
      while (i < n && IsNameChar(line[i], i == key_start)) {
        ++i;
      }
      if (i == key_start || i + 1 >= n || line[i] != '=' || line[i + 1] != '"') {
        return Fail(error, line_no, "expected label key=\"");
      }
      std::string key = line.substr(key_start, i - key_start);
      i += 2;
      std::string value;
      while (i < n && line[i] != '"') {
        if (line[i] == '\\') {
          if (i + 1 >= n) {
            return Fail(error, line_no, "dangling escape");
          }
          const char next = line[i + 1];
          if (next == '\\') {
            value += '\\';
          } else if (next == '"') {
            value += '"';
          } else if (next == 'n') {
            value += '\n';
          } else {
            return Fail(error, line_no, "unknown escape in label value");
          }
          i += 2;
        } else if (line[i] == '\n') {
          return Fail(error, line_no, "raw newline in label value");
        } else {
          value += line[i++];
        }
      }
      if (i >= n) {
        return Fail(error, line_no, "unterminated label value");
      }
      ++i;  // closing quote
      sample->labels.emplace_back(std::move(key), std::move(value));
      if (i < n && line[i] == ',') {
        ++i;
      } else if (i >= n || line[i] != '}') {
        return Fail(error, line_no, "expected , or } after label");
      }
    }
    if (i >= n) {
      return Fail(error, line_no, "unterminated label set");
    }
    ++i;  // closing brace
  }
  if (i >= n || line[i] != ' ') {
    return Fail(error, line_no, "expected space before value");
  }
  ++i;
  const std::string number = line.substr(i);
  if (number.empty()) {
    return Fail(error, line_no, "missing value");
  }
  char* end = nullptr;
  sample->value = std::strtod(number.c_str(), &end);
  if (end == nullptr || *end != '\0') {
    return Fail(error, line_no, "bad value: " + number);
  }
  return true;
}

}  // namespace

bool ParsePrometheusText(const std::string& text, std::vector<PromSample>* out,
                         std::string* error) {
  size_t pos = 0;
  size_t line_no = 0;
  while (pos < text.size()) {
    size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) {
      eol = text.size();
    }
    const std::string line = text.substr(pos, eol - pos);
    pos = eol + 1;
    ++line_no;
    if (line.empty() || line[0] == '#') {
      continue;
    }
    PromSample sample;
    if (!ParseSampleLine(line, line_no, &sample, error)) {
      return false;
    }
    out->push_back(std::move(sample));
  }
  return true;
}

}  // namespace obs
}  // namespace tempo

// benchtrend — aggregates the committed BENCH_*.json result files into one
// table, so a reviewer (or CI) can read every benchmark's headline numbers
// in one place and spot a regression across commits without re-running the
// benches. Scalar fields are flattened with dotted paths ("gate.status",
// "runs[2].speedup"); fields carrying a paper reference value (their name
// contains "paper") are marked, since those are the numbers the repo is
// trying to reproduce.
//
// Every gate status is classified as pass, fail or skipped; the text
// summary counts each and marks failing and skipped gates inline.
//
// Exit status: 0 when every input parsed, 1 when any file is missing or
// not valid JSON (CI runs this over the committed BENCH files, so a
// corrupt or hand-mangled result file fails the build), 2 for usage
// errors. A failing gate is reported, not turned into a failing exit.

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/obs/snapshot.h"
#include "tools/common.h"

namespace tempo {
namespace {

struct FlatValue {
  std::string path;
  std::string value;  // rendered scalar
  bool is_string = false;
};

// Minimal recursive-descent JSON reader: enough for the bench files (no
// \u escapes, no scientific-notation corner cases beyond strtod).
class JsonReader {
 public:
  JsonReader(const std::string& text, std::vector<FlatValue>* out)
      : text_(text), out_(out) {}

  bool Parse() {
    SkipSpace();
    if (!ParseValue("")) {
      return false;
    }
    SkipSpace();
    return pos_ == text_.size();
  }

  std::string error() const { return error_; }

 private:
  bool Fail(const std::string& what) {
    if (error_.empty()) {
      error_ = what + " at offset " + std::to_string(pos_);
    }
    return false;
  }

  void SkipSpace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool ParseValue(const std::string& path) {
    if (pos_ >= text_.size()) {
      return Fail("unexpected end of input");
    }
    const char c = text_[pos_];
    if (c == '{') {
      return ParseObject(path);
    }
    if (c == '[') {
      return ParseArray(path);
    }
    if (c == '"') {
      std::string s;
      if (!ParseString(&s)) {
        return false;
      }
      out_->push_back({path, s, true});
      return true;
    }
    return ParseLiteral(path);
  }

  bool ParseObject(const std::string& path) {
    ++pos_;  // '{'
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      SkipSpace();
      std::string key;
      if (pos_ >= text_.size() || text_[pos_] != '"' || !ParseString(&key)) {
        return Fail("expected object key");
      }
      SkipSpace();
      if (pos_ >= text_.size() || text_[pos_] != ':') {
        return Fail("expected ':'");
      }
      ++pos_;
      SkipSpace();
      if (!ParseValue(path.empty() ? key : path + "." + key)) {
        return false;
      }
      SkipSpace();
      if (pos_ < text_.size() && text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (pos_ < text_.size() && text_[pos_] == '}') {
        ++pos_;
        return true;
      }
      return Fail("expected ',' or '}'");
    }
  }

  bool ParseArray(const std::string& path) {
    ++pos_;  // '['
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      return true;
    }
    size_t index = 0;
    while (true) {
      SkipSpace();
      if (!ParseValue(path + "[" + std::to_string(index++) + "]")) {
        return false;
      }
      SkipSpace();
      if (pos_ < text_.size() && text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (pos_ < text_.size() && text_[pos_] == ']') {
        ++pos_;
        return true;
      }
      return Fail("expected ',' or ']'");
    }
  }

  bool ParseString(std::string* out) {
    ++pos_;  // opening quote
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') {
        return true;
      }
      if (c == '\\') {
        if (pos_ >= text_.size()) {
          break;
        }
        const char e = text_[pos_++];
        switch (e) {
          case 'n':
            *out += '\n';
            break;
          case 't':
            *out += '\t';
            break;
          default:
            *out += e;  // \" \\ \/ and friends
        }
        continue;
      }
      *out += c;
    }
    return Fail("unterminated string");
  }

  bool ParseLiteral(const std::string& path) {
    const size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isalnum(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == '-' || text_[pos_] == '+')) {
      ++pos_;
    }
    const std::string token = text_.substr(start, pos_ - start);
    if (token.empty()) {
      return Fail("unexpected character");
    }
    if (token == "true" || token == "false" || token == "null") {
      out_->push_back({path, token, false});
      return true;
    }
    char* end = nullptr;
    (void)std::strtod(token.c_str(), &end);
    if (end == nullptr || *end != '\0') {
      return Fail("bad literal '" + token + "'");
    }
    out_->push_back({path, token, false});
    return true;
  }

  const std::string& text_;
  std::vector<FlatValue>* out_;
  size_t pos_ = 0;
  std::string error_;
};

bool IsPaperRef(const std::string& path) {
  return path.find("paper") != std::string::npos;
}

// A gate status field: ".../gate.status" (or any gate object's "status").
bool IsGateStatus(const std::string& path) {
  return path.find("gate") != std::string::npos &&
         (path == "status" ||
          (path.size() >= 7 && path.compare(path.size() - 7, 7, ".status") == 0));
}

// Gates report "pass", "fail", or "skipped[: reason]" — a gate whose
// precondition did not hold on this machine (too few cores, say). Skipped
// is an explicit third state: not a pass, not a failure, loudly marked so
// nobody mistakes an unexercised gate for a green one.
enum class GateState { kPass, kFail, kSkipped };

GateState ClassifyGate(const std::string& status) {
  if (status == "pass") {
    return GateState::kPass;
  }
  if (status.compare(0, 7, "skipped") == 0) {
    return GateState::kSkipped;
  }
  return GateState::kFail;
}

const char* GateStateName(GateState state) {
  switch (state) {
    case GateState::kPass:
      return "pass";
    case GateState::kFail:
      return "fail";
    case GateState::kSkipped:
      return "skipped";
  }
  return "fail";
}

}  // namespace
}  // namespace tempo

int main(int argc, char** argv) {
  using namespace tempo;
  static const tools::FlagSpec kFlags[] = {
      {"format", 1, "text|json", "output format (default text)"},
  };
  const tools::ParsedArgs args = tools::ParseArgs(argc, argv, kFlags);
  if (!args.ok() || args.positionals().empty()) {
    if (!args.ok()) {
      std::fprintf(stderr, "error: %s\n", args.error().c_str());
    }
    tools::PrintUsage(stderr, argv[0], "<BENCH_*.json>...", kFlags);
    return 2;
  }
  tools::OutputFormat format = tools::OutputFormat::kText;
  if (!tools::ParseFormatName(args.Value("format", 0, "text"), &format)) {
    std::fprintf(stderr, "error: unknown format %s\n",
                 args.Value("format").c_str());
    return 2;
  }

  struct Bench {
    std::string file;
    std::vector<FlatValue> values;
  };
  std::vector<Bench> benches;
  int rc = 0;
  for (const std::string& path : args.positionals()) {
    std::ifstream in(path, std::ios::binary);
    if (!in) {
      std::fprintf(stderr, "error: cannot read %s\n", path.c_str());
      rc = 1;
      continue;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    const std::string text = buf.str();
    Bench bench;
    bench.file = path;
    JsonReader reader(text, &bench.values);
    if (!reader.Parse()) {
      std::fprintf(stderr, "error: %s is not valid JSON: %s\n", path.c_str(),
                   reader.error().c_str());
      rc = 1;
      continue;
    }
    benches.push_back(std::move(bench));
  }

  // Every gate across the inputs, with skipped ones warned about on
  // stderr: skipping is legitimate (exit stays 0) but never silent.
  struct Gate {
    std::string file;
    std::string path;
    GateState state;
    std::string status;
  };
  std::vector<Gate> gates;
  for (const Bench& bench : benches) {
    for (const FlatValue& v : bench.values) {
      if (v.is_string && IsGateStatus(v.path)) {
        gates.push_back({bench.file, v.path, ClassifyGate(v.value), v.value});
      }
    }
  }
  for (const Gate& gate : gates) {
    if (gate.state == GateState::kSkipped) {
      std::fprintf(stderr, "warning: %s: gate %s SKIPPED (%s)\n",
                   gate.file.c_str(), gate.path.c_str(), gate.status.c_str());
    }
  }

  if (format == tools::OutputFormat::kJson) {
    std::string out = "{\"benches\":[";
    for (size_t i = 0; i < benches.size(); ++i) {
      if (i > 0) {
        out += ",";
      }
      out += "{\"file\":\"" + obs::JsonEscape(benches[i].file) + "\",\"values\":{";
      for (size_t j = 0; j < benches[i].values.size(); ++j) {
        const FlatValue& v = benches[i].values[j];
        if (j > 0) {
          out += ",";
        }
        out += "\"" + obs::JsonEscape(v.path) + "\":";
        out += v.is_string ? "\"" + obs::JsonEscape(v.value) + "\"" : v.value;
      }
      out += "}}";
    }
    out += "],\"gates\":[";
    for (size_t i = 0; i < gates.size(); ++i) {
      const Gate& gate = gates[i];
      if (i > 0) {
        out += ",";
      }
      out += "{\"file\":\"" + obs::JsonEscape(gate.file) + "\",\"path\":\"" +
             obs::JsonEscape(gate.path) + "\",\"state\":\"" + GateStateName(gate.state) +
             "\",\"status\":\"" + obs::JsonEscape(gate.status) + "\"}";
    }
    out += "]}";
    std::printf("%s\n", out.c_str());
  } else {
    std::printf("benchtrend: %zu bench file%s\n", benches.size(),
                benches.size() == 1 ? "" : "s");
    for (const Bench& bench : benches) {
      std::printf("\n%s\n", bench.file.c_str());
      size_t width = 0;
      for (const FlatValue& v : bench.values) {
        width = std::max(width, v.path.size());
      }
      for (const FlatValue& v : bench.values) {
        const char* mark = "";
        if (v.is_string && IsGateStatus(v.path)) {
          const GateState state = ClassifyGate(v.value);
          mark = state == GateState::kSkipped ? "   [SKIPPED]"
                 : state == GateState::kFail  ? "   [FAIL]"
                                              : "";
        }
        std::printf("  %-*s = %s%s%s\n", static_cast<int>(width), v.path.c_str(),
                    v.value.c_str(), IsPaperRef(v.path) ? "   [paper]" : "", mark);
      }
    }
    size_t counts[3] = {};  // indexed by GateState
    for (const Gate& gate : gates) {
      ++counts[static_cast<size_t>(gate.state)];
    }
    if (!gates.empty()) {
      std::printf("\ngates: %zu total, %zu pass, %zu fail, %zu skipped\n", gates.size(),
                  counts[static_cast<size_t>(GateState::kPass)],
                  counts[static_cast<size_t>(GateState::kFail)],
                  counts[static_cast<size_t>(GateState::kSkipped)]);
    }
  }
  return rc;
}

// Traced-run plumbing for the end-to-end benchmark, kept outside the
// library: every span is timed from the benchmark's own code, around
// tempo's public calls.
//
//   SpanLog    in-memory spans (name, start, end, parent, run id), written
//              at exit as Chrome trace-event JSON that opens in Perfetto.
//   TimedPass  an AnalysisPass decorator timing Accumulate / Merge /
//              Render. It forwards name(), fields() and predicate(), so v3
//              projection and predicate pushdown stay on and the traced
//              run executes the same program as the untraced one.
//   DigestSink a RenderSink that hashes the rendered report sections, so
//              two runs can prove they produced the same output.

#ifndef TEMPO_E2EBENCH_LEDGER_H_
#define TEMPO_E2EBENCH_LEDGER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "src/analysis/pass.h"

namespace tempo {
namespace e2e {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

// Small per-thread ids for the span file's tid column: 1 is the first
// thread that asks (the main thread), workers follow in order of first use.
inline uint32_t ThreadOrdinal() {
  static std::atomic<uint32_t> next{1};
  thread_local const uint32_t ordinal = next.fetch_add(1, std::memory_order_relaxed);
  return ordinal;
}

struct Span {
  std::string name;
  uint64_t start_ns = 0;  // since the log's epoch
  uint64_t end_ns = 0;
  uint32_t id = 0;
  uint32_t parent = 0;  // 0: a root span
  uint32_t run = 0;     // the workload iteration the span belongs to
  uint32_t tid = 0;
};

// Main-thread-only span store. Worker-thread spans reach it through
// TimedPass::Merge, which runs on the thread that owns the pipeline.
class SpanLog {
 public:
  explicit SpanLog(Clock::time_point epoch) : epoch_(epoch) {}

  uint64_t Nanos(Clock::time_point t) const {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_).count());
  }

  // Reserves an id, so children can name a span that has not ended yet.
  uint32_t NextId() { return ++last_id_; }

  void Add(Span span) {
    if (span.id == 0) {
      span.id = NextId();
    }
    spans_.push_back(std::move(span));
  }

  // Chrome trace-event JSON: one complete ("X") event per span, in µs.
  bool WriteChromeTrace(const std::string& path, const std::string& process) const {
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) {
      return false;
    }
    std::fprintf(out, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    std::fprintf(out,
                 "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,"
                 "\"args\":{\"name\":\"%s\"}}",
                 process.c_str());
    for (const Span& s : spans_) {
      std::fprintf(out,
                   ",\n{\"name\":\"%s\",\"cat\":\"e2ebench\",\"ph\":\"X\",\"pid\":1,"
                   "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%u,"
                   "\"parent\":%u,\"run\":%u}}",
                   s.name.c_str(), s.tid, static_cast<double>(s.start_ns) / 1e3,
                   static_cast<double>(s.end_ns - s.start_ns) / 1e3, s.id, s.parent,
                   s.run);
    }
    std::fprintf(out, "\n]}\n");
    return std::fclose(out) == 0;
  }

 private:
  Clock::time_point epoch_;
  uint32_t last_id_ = 0;
  std::vector<Span> spans_;
};

// Opens a span on construction and logs it on destruction; a null log
// makes it a no-op. The id is reserved up front so nested scopes can use
// it as their parent.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, uint32_t parent, uint32_t run)
      : log_(log), name_(name), parent_(parent), run_(run),
        id_(log != nullptr ? log->NextId() : 0), start_(Clock::now()) {}
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  ~ScopedSpan() { End(); }

  // Closes the span before the end of its scope; later calls do nothing.
  void End() {
    if (log_ != nullptr) {
      log_->Add(Span{name_, log_->Nanos(start_), log_->Nanos(Clock::now()), id_, parent_,
                     run_, ThreadOrdinal()});
      log_ = nullptr;
    }
  }

  uint32_t id() const { return id_; }

 private:
  SpanLog* log_;
  const char* name_;
  uint32_t parent_;
  uint32_t run_;
  uint32_t id_;
  Clock::time_point start_;
};

// Where TimedPass files its spans: the log, the span they hang under (the
// pipeline run) and the iteration. Written by the main thread before the
// pipeline starts its workers and read-only while they run.
struct SpanContext {
  SpanLog* log = nullptr;
  uint32_t parent = 0;
  uint32_t run = 0;
};

class TimedPass : public AnalysisPass {
 public:
  TimedPass(std::unique_ptr<AnalysisPass> inner, const SpanContext* context)
      : inner_(std::move(inner)), context_(context) {
    accumulate_span_ = std::string("analysis.") + inner_->name() + ".accumulate";
  }

  const char* name() const override { return inner_->name(); }
  const Predicate* predicate() const override { return inner_->predicate(); }
  uint16_t fields() const override { return inner_->fields(); }

  std::unique_ptr<AnalysisPass> Fork() const override {
    return std::make_unique<TimedPass>(inner_->Fork(), context_);
  }

  // Runs on a pipeline worker: keeps plain tallies and buffers its spans.
  void Accumulate(std::span<const TraceRecord> records) override {
    const Clock::time_point t0 = Clock::now();
    inner_->Accumulate(records);
    const Clock::time_point t1 = Clock::now();
    accumulate_s_ += SecondsBetween(t0, t1);
    if (context_->log != nullptr) {
      pending_.push_back(Span{accumulate_span_, context_->log->Nanos(t0),
                              context_->log->Nanos(t1), 0, context_->parent,
                              context_->run, ThreadOrdinal()});
    }
  }

  // Runs on the pipeline's calling thread, in worker order.
  void Merge(AnalysisPass&& other) override {
    auto& timed = static_cast<TimedPass&>(other);
    const Clock::time_point t0 = Clock::now();
    inner_->Merge(std::move(*timed.inner_));
    const Clock::time_point t1 = Clock::now();
    merge_s_ += SecondsBetween(t0, t1);
    accumulate_s_ += timed.accumulate_s_;
    if (context_->log != nullptr) {
      for (Span& span : timed.pending_) {
        context_->log->Add(std::move(span));
      }
      context_->log->Add(Span{std::string("analysis.") + inner_->name() + ".merge",
                              context_->log->Nanos(t0), context_->log->Nanos(t1), 0,
                              context_->parent, context_->run, ThreadOrdinal()});
    }
    timed.pending_.clear();
  }

  void Render(RenderSink& sink) override {
    const Clock::time_point t0 = Clock::now();
    inner_->Render(sink);
    render_s_ += SecondsBetween(t0, Clock::now());
  }

  double accumulate_s() const { return accumulate_s_; }
  double merge_s() const { return merge_s_; }
  double render_s() const { return render_s_; }

 private:
  std::unique_ptr<AnalysisPass> inner_;
  const SpanContext* context_;
  std::string accumulate_span_;
  std::vector<Span> pending_;
  double accumulate_s_ = 0;
  double merge_s_ = 0;
  double render_s_ = 0;
};

// FNV-1a over every (key, text) section, in render order.
class DigestSink : public RenderSink {
 public:
  void Section(const std::string& key, const std::string& text) override {
    Mix(key);
    Mix(text);
    ++sections_;
  }
  uint64_t digest() const { return hash_; }
  size_t sections() const { return sections_; }

 private:
  void Mix(const std::string& s) {
    for (const char c : s) {
      hash_ = (hash_ ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
    }
    hash_ = (hash_ ^ 0xffu) * 0x100000001b3ULL;  // field separator
  }

  uint64_t hash_ = 0xcbf29ce484222325ULL;
  size_t sections_ = 0;
};

}  // namespace e2e
}  // namespace tempo

#endif  // TEMPO_E2EBENCH_LEDGER_H_

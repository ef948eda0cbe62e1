// The AnalysisPass API: streaming, mergeable trace analyses.
//
// Each table and figure of the paper is one pass: a state machine that
// consumes the trace as a stream of record batches and carries explicit
// partial state:
//
//   Fork()        an empty pass with the same configuration, for a worker
//   Accumulate()  folds one batch of time-ordered records into the state
//   Merge()       absorbs another pass's state; the argument must have
//                 accumulated records STRICTLY LATER than this pass's
//                 (pipeline.h feeds workers contiguous chunk ranges and
//                 merges them in trace order, so this always holds)
//   Render()      emits the finished report into a RenderSink
//
// The ordered-merge contract is what makes parallel analysis exact: every
// pass reproduces, byte for byte, what one Accumulate over the whole trace
// produces, for any chunking and any worker count. A caller that already
// holds the records feeds them as one batch and reads the pass's result:
//
//   SummaryPass pass(run.label);
//   pass.Accumulate(run.records);
//   const TraceSummary summary = pass.Result();
//
// PipelineRunner (pipeline.h) runs passes over a file's chunks, or over
// records in memory, on N workers.

#ifndef TEMPO_SRC_ANALYSIS_PASS_H_
#define TEMPO_SRC_ANALYSIS_PASS_H_

#include <cstdio>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "src/obs/snapshot.h"
#include "src/trace/codec.h"
#include "src/trace/predicate.h"
#include "src/trace/record.h"

namespace tempo {

// Receives rendered report sections. Keys are stable machine-readable
// names ("summary", "patterns", ...); text is the exact human-readable
// section body the text report prints.
class RenderSink {
 public:
  virtual ~RenderSink() = default;
  virtual void Section(const std::string& key, const std::string& text) = 0;
};

// Writes section bodies verbatim to a stdio stream — the classic tool
// output.
class TextRenderSink : public RenderSink {
 public:
  explicit TextRenderSink(std::FILE* out) : out_(out) {}
  void Section(const std::string& key, const std::string& text) override {
    (void)key;
    std::fputs(text.c_str(), out_);
  }

 private:
  std::FILE* out_;
};

// Collects sections into one JSON object {"key": "text", ...}; call
// Finish() after the last pass rendered.
class JsonRenderSink : public RenderSink {
 public:
  explicit JsonRenderSink(std::FILE* out) : out_(out) {}
  void Section(const std::string& key, const std::string& text) override {
    sections_.emplace_back(key, text);
  }
  void Finish() {
    std::fputs("{", out_);
    for (size_t i = 0; i < sections_.size(); ++i) {
      if (i > 0) {
        std::fputs(",", out_);
      }
      std::fprintf(out_, "\n  \"%s\": \"%s\"", obs::JsonEscape(sections_[i].first).c_str(),
                   obs::JsonEscape(sections_[i].second).c_str());
    }
    std::fputs("\n}\n", out_);
  }

 private:
  std::FILE* out_;
  std::vector<std::pair<std::string, std::string>> sections_;
};

// One streaming analysis. See the file comment for the contract; concrete
// passes live with their modules (SummaryPass in summary.h, ...).
class AnalysisPass {
 public:
  virtual ~AnalysisPass() = default;

  // Stable pass name, used for metrics labels and section ordering.
  virtual const char* name() const = 0;

  // A fresh pass with the same configuration and empty state.
  virtual std::unique_ptr<AnalysisPass> Fork() const = 0;

  // Folds one batch of time-ordered records into the partial state.
  // Batches arrive in trace order within one pass instance.
  virtual void Accumulate(std::span<const TraceRecord> records) = 0;

  // Absorbs `other`, which must be the same concrete type and must have
  // accumulated the records immediately following this pass's.
  virtual void Merge(AnalysisPass&& other) = 0;

  // Renders the final report section(s). Call once, after all merges.
  virtual void Render(RenderSink& sink) = 0;

  // The records this pass actually needs, or nullptr for all of them
  // (the default — a null predicate pins every chunk). A pass returning a
  // predicate promises its result ignores non-matching records, which
  // lets the pipeline skip whole chunks whose zone map cannot match
  // (predicate pushdown on v3 traces). The pointer must stay valid for
  // the pass's lifetime and describe Fork()ed copies too.
  virtual const Predicate* predicate() const { return nullptr; }

  // The record fields this pass reads (kField* bits from codec.h), or
  // kAllTraceFields (the default) for all of them. A pass returning a
  // narrower mask promises its result ignores the other fields, which
  // lets the columnar reader decode only the declared stripes (projection
  // pushdown on v3 traces) and hand the pass records whose remaining
  // fields are default-initialised. Like predicate(), the mask must also
  // describe Fork()ed copies.
  virtual uint16_t fields() const { return kAllTraceFields; }
};

}  // namespace tempo

#endif  // TEMPO_SRC_ANALYSIS_PASS_H_

// Timeout provenance analysis (Section 5.2).
//
// "There are clear benefits to be gained from preserving and propagating
//  information about how timers have been set, and by whom, throughout the
//  system ... being able to trace execution through the system is a
//  critical requirement for understanding anomalous behavior."
//
// Call-sites in tempo declare a provenance parent (the facility they
// multiplex onto), so each record carries an implicit chain from the leaf
// tracepoint up to the subsystem that caused it. This module aggregates a
// trace along those chains and produces the two reports the paper wants:
//   * an attribution tree: which subsystem is responsible for how much
//     timer activity (directly and through everything below it);
//   * a blame report for a time interval: who kept the CPU waiting, with
//     held-time totals — the "why did this take a minute" question of the
//     file-browser pathology.

#ifndef TEMPO_SRC_ANALYSIS_PROVENANCE_H_
#define TEMPO_SRC_ANALYSIS_PROVENANCE_H_

#include <map>
#include <string>
#include <vector>

#include "src/analysis/lifetimes.h"
#include "src/analysis/pass.h"
#include "src/trace/callsite.h"

namespace tempo {

// One node of the attribution tree.
struct ProvenanceNode {
  CallsiteId callsite = kUnknownCallsite;
  std::string name;
  // Operations recorded at exactly this call-site.
  uint64_t direct_ops = 0;
  uint64_t direct_sets = 0;
  // Operations at this call-site plus everything that multiplexes onto it.
  uint64_t subtree_ops = 0;
  uint64_t subtree_sets = 0;
  std::vector<ProvenanceNode> children;  // sorted by subtree_ops, descending
};

// Streaming attribution forest as an AnalysisPass: per-call-site tallies
// merge by addition; the forest is assembled at Result. The registry must
// outlive the pass.
class ProvenancePass : public AnalysisPass {
 public:
  explicit ProvenancePass(const CallsiteRegistry* callsites) : callsites_(callsites) {}

  const char* name() const override { return "provenance"; }
  std::unique_ptr<AnalysisPass> Fork() const override;
  void Accumulate(std::span<const TraceRecord> records) override;
  void Merge(AnalysisPass&& other) override;
  void Render(RenderSink& sink) override;

  // The finished forest, one tree per provenance root, roots sorted by
  // subtree_ops, descending; call after all merges.
  std::vector<ProvenanceNode> Result() const;

 private:
  const CallsiteRegistry* callsites_;
  std::map<CallsiteId, std::pair<uint64_t, uint64_t>> direct_;  // ops, sets
};

// One blame entry: a call-site's contribution to waiting inside a window.
struct BlameEntry {
  CallsiteId callsite = kUnknownCallsite;
  std::string name;
  uint64_t episodes = 0;       // episodes overlapping the window
  SimDuration held = 0;        // pending time accumulated inside the window
  SimDuration longest = 0;     // longest single episode within the window
};

// Streaming blame report as an AnalysisPass (records stream into an
// EpisodeBuilder; the window aggregation runs at Result). The registry
// must outlive the pass.
class BlamePass : public AnalysisPass {
 public:
  BlamePass(const CallsiteRegistry* callsites, SimTime start, SimTime end)
      : callsites_(callsites), start_(start), end_(end) {}

  const char* name() const override { return "blame"; }
  std::unique_ptr<AnalysisPass> Fork() const override;
  void Accumulate(std::span<const TraceRecord> records) override;
  void Merge(AnalysisPass&& other) override;
  void Render(RenderSink& sink) override;

  // The finished report for [start, end): which call-sites had timers
  // pending, for how long, sorted by held time, descending. Answers "what
  // was the system waiting on" for a stall. Call after all merges.
  std::vector<BlameEntry> Result() const;

 private:
  const CallsiteRegistry* callsites_;
  SimTime start_;
  SimTime end_;
  EpisodeBuilder episodes_;
};

// Renders the forest with indentation and counts.
std::string RenderProvenance(const std::vector<ProvenanceNode>& forest);

// Renders a blame report.
std::string RenderBlame(const std::vector<BlameEntry>& entries, SimTime start, SimTime end);

}  // namespace tempo

#endif  // TEMPO_SRC_ANALYSIS_PROVENANCE_H_

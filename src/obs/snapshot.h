// Renderers for MetricsSnapshot: human text, machine JSON, and
// Prometheus text exposition format.
//
// All three render from the same deterministically ordered snapshot, so
// two snapshots of identical registry state produce byte-identical output
// in every format — pinned by tests/obs_test.cc.

#ifndef TEMPO_SRC_OBS_SNAPSHOT_H_
#define TEMPO_SRC_OBS_SNAPSHOT_H_

#include <string>
#include <vector>

#include "src/obs/metrics.h"

namespace tempo {
namespace obs {

// `s` as the inside of a JSON string: quote, backslash and every control
// character below 0x20 escaped (\n, \t, \r, \b, \f, else \u00XX). The one
// JSON string escaper of the obs renderers, the analysis JSON sink and
// the tools.
std::string JsonEscape(const std::string& s);

// Aligned, human-readable table. Histograms render count/mean/p50/p90/p99.
std::string RenderText(const MetricsSnapshot& snapshot);

// One JSON object: {"metrics": [{"name": ..., "labels": {...}, ...}]}.
std::string RenderJson(const MetricsSnapshot& snapshot);

// Prometheus text exposition format (# HELP / # TYPE, name{label="v"}
// value). Histograms emit cumulative `_bucket{le="..."}` series plus
// `_sum` and `_count`, counters emit a `_total`-suffixed series if the
// name does not already end in `_total`.
std::string RenderPrometheus(const MetricsSnapshot& snapshot);

// One sample line of the exposition format, as parsed back.
struct PromSample {
  std::string name;
  Labels labels;  // escapes undone, registration order preserved
  double value = 0.0;
};

// Strict parser for the subset of the Prometheus text format that
// RenderPrometheus emits: comment/HELP/TYPE lines are skipped, every other
// non-empty line must be `name{k="v",...} value` with the three-escape
// rule inside quoted values. Proves a scrape is well-formed by round-trip
// (tests/obs_test.cc); false on the first malformed line.
bool ParsePrometheusText(const std::string& text, std::vector<PromSample>* out,
                         std::string* error = nullptr);

}  // namespace obs
}  // namespace tempo

#endif  // TEMPO_SRC_OBS_SNAPSHOT_H_

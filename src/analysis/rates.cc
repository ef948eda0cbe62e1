#include "src/analysis/rates.h"

#include <algorithm>
#include <utility>

#include "src/analysis/render.h"

namespace tempo {

namespace {

// The series a record counts under; empty string means dropped.
std::string LabelFor(const TraceRecord& r, const RateGrouping& grouping) {
  if (r.pid == kKernelPid) {
    return grouping.kernel_label;
  }
  const auto it = grouping.pid_labels.find(r.pid);
  if (it != grouping.pid_labels.end()) {
    return it->second;
  }
  return grouping.default_label;
}

}  // namespace

void RatesPass::Accumulate(std::span<const TraceRecord> records) {
  if (options_.window <= 0) {
    return;  // Result is empty regardless
  }
  for (const TraceRecord& r : records) {
    // Track the trace end over ALL records (the serial code uses the last
    // record's timestamp, whether or not that record counts). Traces are
    // time-ordered, so the last timestamp is the maximum.
    if (options_.end == 0) {
      if (!any_records_ || r.timestamp > max_ts_) {
        max_ts_ = r.timestamp;
        any_records_ = true;
        at_max_.clear();
      }
    }
    if (r.timestamp < options_.start) {
      continue;
    }
    if (options_.end > 0 && r.timestamp >= options_.end) {
      continue;
    }
    if (options_.sets_only && r.op != TimerOp::kSet && r.op != TimerOp::kBlock) {
      continue;
    }
    const std::string label = LabelFor(r, grouping_);
    if (label.empty()) {
      continue;
    }
    const uint64_t idx =
        static_cast<uint64_t>((r.timestamp - options_.start) / options_.window);
    ++windows_[label][idx];
    if (options_.end == 0) {
      ++at_max_[label];  // r.timestamp == max_ts_ here; may yet be superseded
    }
  }
}

void RatesPass::Merge(AnalysisPass&& other) {
  auto& later = dynamic_cast<RatesPass&>(other);
  for (auto& [label, sparse] : later.windows_) {
    auto& mine = windows_[label];
    for (const auto& [idx, count] : sparse) {
      mine[idx] += count;
    }
  }
  if (later.any_records_) {
    if (!any_records_ || later.max_ts_ > max_ts_) {
      max_ts_ = later.max_ts_;
      at_max_ = std::move(later.at_max_);
      any_records_ = true;
    } else if (later.max_ts_ == max_ts_) {
      for (const auto& [label, count] : later.at_max_) {
        at_max_[label] += count;
      }
    }
  }
}

std::vector<RateSeries> RatesPass::Result() const {
  const SimTime end = options_.end > 0 ? options_.end : (any_records_ ? max_ts_ : 0);
  if (end <= options_.start || options_.window <= 0) {
    return {};
  }
  const size_t window_count = static_cast<size_t>(
      (end - options_.start + options_.window - 1) / options_.window);

  std::vector<RateSeries> out;
  for (const auto& [label, sparse_orig] : windows_) {
    auto sparse = sparse_orig;
    if (options_.end == 0) {
      // Records at the trace-end timestamp fall outside [start, end).
      const auto excess = at_max_.find(label);
      if (excess != at_max_.end() && excess->second > 0) {
        const uint64_t idx =
            static_cast<uint64_t>((max_ts_ - options_.start) / options_.window);
        auto it = sparse.find(idx);
        it->second -= excess->second;
        if (it->second == 0) {
          sparse.erase(it);
        }
      }
    }
    uint64_t total = 0;
    for (const auto& [idx, count] : sparse) {
      total += count;
    }
    if (total == 0) {
      continue;  // the serial scan would never have created this series
    }
    RateSeries series;
    series.label = label;
    series.per_window.assign(window_count, 0);
    for (const auto& [idx, count] : sparse) {
      if (idx < window_count) {
        series.per_window[idx] = count;
      }
    }
    out.push_back(std::move(series));
  }
  return out;
}

std::unique_ptr<AnalysisPass> RatesPass::Fork() const {
  return std::make_unique<RatesPass>(grouping_, options_);
}

void RatesPass::Render(RenderSink& sink) {
  sink.Section("rates", "rates:\n" + RenderRates(Result(), options_.window) + "\n");
}

}  // namespace tempo

#include "src/analysis/rates.h"

#include <algorithm>
#include <utility>

#include "src/analysis/lifetimes.h"
#include "src/analysis/render.h"

namespace tempo {

const std::string& RateGrouping::LabelFor(Pid pid) const {
  if (pid == kKernelPid) {
    return kernel_label;
  }
  const auto it = pid_labels.find(pid);
  return it != pid_labels.end() ? it->second : default_label;
}

void RatesPass::Series::Add(uint64_t window, uint64_t count) {
  total += count;
  if (!windows.empty() && windows.back().first == window) {
    windows.back().second += count;
  } else {
    windows.emplace_back(window, count);
  }
}

void RatesPass::Accumulate(std::span<const TraceRecord> records) {
  if (options_.window <= 0) {
    return;  // Result is empty regardless
  }
  for (const TraceRecord& r : records) {
    // Track the trace end over ALL records (the serial code uses the last
    // record's timestamp, whether or not that record counts). Traces are
    // time-ordered, so the last timestamp is the maximum. Only the derived
    // end (options.end == 0) reads it.
    if (!any_records_ || r.timestamp > max_ts_) {
      max_ts_ = r.timestamp;
      any_records_ = true;
    }
    if (r.timestamp < options_.start) {
      continue;
    }
    if (options_.end > 0 && r.timestamp >= options_.end) {
      continue;
    }
    if (options_.sets_only && !IsArm(r.op)) {
      continue;
    }
    auto [cached, fresh] = pid_series_.try_emplace(r.pid, nullptr);
    if (fresh) {
      const std::string& label = grouping_.LabelFor(r.pid);
      if (!label.empty()) {
        cached->second = &series_.try_emplace(label).first->second;
      }
    }
    Series* series = cached->second;
    if (series == nullptr) {
      continue;
    }
    series->Add(static_cast<uint64_t>((r.timestamp - options_.start) / options_.window), 1);
    series->at_end.Add(max_ts_);  // r.timestamp == max_ts_ here; may yet be superseded
  }
}

void RatesPass::Merge(AnalysisPass&& other) {
  auto& later = dynamic_cast<RatesPass&>(other);
  if (later.any_records_ && (!any_records_ || later.max_ts_ > max_ts_)) {
    max_ts_ = later.max_ts_;
    any_records_ = true;
  }
  for (const auto& [label, theirs] : later.series_) {
    Series& mine = series_.try_emplace(label).first->second;
    for (const auto& [window, count] : theirs.windows) {
      mine.Add(window, count);
    }
    mine.at_end.Merge(theirs.at_end, max_ts_);
  }
}

std::vector<RateSeries> RatesPass::Result() const {
  const SimTime end = options_.end > 0 ? options_.end : (any_records_ ? max_ts_ : 0);
  if (end <= options_.start || options_.window <= 0) {
    return {};
  }
  const size_t window_count = static_cast<size_t>(
      (end - options_.start + options_.window - 1) / options_.window);
  const uint64_t end_window = static_cast<uint64_t>((end - options_.start) / options_.window);

  std::vector<RateSeries> out;
  for (const auto& [label, series] : series_) {
    // Records at the derived trace-end timestamp fall outside [start, end).
    const uint64_t at_end = options_.end == 0 ? series.at_end.At(max_ts_) : 0;
    if (series.total <= at_end) {
      continue;  // the serial scan would never have created this series
    }
    RateSeries out_series{label, std::vector<uint64_t>(window_count, 0)};
    for (const auto& [window, count] : series.windows) {
      if (window < window_count) {
        out_series.per_window[window] += count;
      }
    }
    if (at_end > 0 && end_window < window_count) {
      out_series.per_window[end_window] -= at_end;
    }
    out.push_back(std::move(out_series));
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

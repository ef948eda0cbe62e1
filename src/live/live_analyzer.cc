#include "src/live/live_analyzer.h"

#include <algorithm>
#include <utility>

namespace tempo {
namespace live {

LiveAnalyzer::LiveAnalyzer(LiveOptions options)
    : options_(std::move(options)),
      window_seconds_(ToSeconds(options_.window > 0 ? options_.window : 1)) {
  // An empty stats_label disables instrumentation entirely. Fleet host
  // replicas need this: many analyzers sharing the process-global registry
  // would alias the same instruments and break the single-writer rule.
  if (!options_.stats_label.empty()) {
    obs::Registry& registry = obs::Registry::Global();
    const obs::Labels labels = {{"analyzer", options_.stats_label}};
    metric_records_ = registry.GetCounter("live_records", labels,
                                          "Records ingested by the live analyzer");
    gauge_window_evictions_ =
        registry.GetGauge("live_window_evictions", labels,
                          "Rate-ring windows evicted across all live series");
    gauge_series_ = registry.GetGauge("live_series", labels,
                                      "Process + origin series the analyzer tracks");
  }
}

void LiveAnalyzer::Ingest(const TraceRecord& record) {
  ++records_;
  if (metric_records_ != nullptr) {
    metric_records_->Inc();
  }

  // Trace-end tracking over ALL records — the offline pass derives its
  // analysis end from the last record's timestamp whether or not that
  // record counts. The drainer's merge is time-ordered, so ties accumulate
  // in each series' EndTally and a later maximum clears it lazily.
  if (!any_records_ || record.timestamp > max_ts_) {
    max_ts_ = record.timestamp;
    any_records_ = true;
  }

  if (record.timestamp < options_.start || options_.window <= 0) {
    return;
  }
  const uint64_t window =
      static_cast<uint64_t>((record.timestamp - options_.start) / options_.window);
  if (window > current_window_) {
    AdvanceWindows(window);
  }

  const bool is_set = record.op == TimerOp::kSet || record.op == TimerOp::kBlock;
  const bool is_cancel = record.op == TimerOp::kCancel;
  const bool is_expire = record.op == TimerOp::kExpire;
  if (!is_set && !is_cancel && !is_expire) {
    return;
  }

  auto [cached, fresh] = pid_cache_.try_emplace(record.pid, nullptr);
  if (fresh && !options_.grouping.LabelFor(record.pid).empty()) {
    cached->second = &ProcessEntry(options_.grouping.LabelFor(record.pid));
  }
  Entry* process = cached->second;
  Entry* origin = OriginEntry(record.callsite);

  if (is_set) {
    if (process != nullptr) {
      process->sets.Add(window);
      process->at_end.Add(max_ts_);  // record.timestamp == max_ts_ on the ordered stream
    }
    if (origin != nullptr) {
      origin->sets.Add(window);
    }
  } else if (is_cancel) {
    if (process != nullptr) {
      process->cancels.Add(window);
    }
    if (origin != nullptr) {
      origin->cancels.Add(window);
    }
  } else {
    if (process != nullptr) {
      process->expires.Add(window);
    }
    if (origin != nullptr) {
      origin->expires.Add(window);
    }
  }
}

LiveAnalyzer::Entry& LiveAnalyzer::ProcessEntry(const std::string& label) {
  auto it = processes_.find(label);
  if (it == processes_.end()) {
    // An uninstrumented analyzer keeps its burst detectors uninstrumented
    // too — their {series=label} instruments would alias across replicas.
    const std::string& burst_label =
        options_.stats_label.empty() ? options_.stats_label : label;
    it = processes_
             .try_emplace(label, options_.ring_windows, options_.burst, burst_label)
             .first;
    it->second.next_eval = current_window_;
  }
  return it->second;
}

LiveAnalyzer::Entry* LiveAnalyzer::OriginEntry(CallsiteId callsite) {
  if (options_.callsites == nullptr) {
    return nullptr;
  }
  const auto cached = origin_cache_.find(callsite);
  if (cached != origin_cache_.end()) {
    return cached->second;
  }
  const std::string& name = options_.callsites->Name(callsite);
  std::string origin = name.substr(0, name.find('/'));
  if (origin.empty() || origin == "?") {
    origin = "unknown";
  }
  auto it = origins_.find(origin);
  if (it == origins_.end()) {
    // Origin series carry no burst detector: empty label disables the
    // instruments and AdvanceWindows never evaluates them.
    it = origins_
             .try_emplace(origin, options_.ring_windows, options_.burst,
                          std::string())
             .first;
    it->second.next_eval = current_window_;
  }
  origin_cache_.emplace(callsite, &it->second);
  return &it->second;
}

void LiveAnalyzer::AdvanceWindows(uint64_t window) {
  for (auto& [label, entry] : processes_) {
    for (uint64_t w = entry.next_eval; w < window; ++w) {
      entry.burst.OnWindowClosed(
          w, static_cast<double>(entry.sets.Count(w)) / window_seconds_);
    }
    entry.next_eval = window;
  }
  current_window_ = window;
}

LiveSeriesStats LiveAnalyzer::Stats(const std::string& label, const Entry& entry,
                                    bool with_burst) const {
  LiveSeriesStats stats;
  stats.label = label;
  stats.sets = entry.sets.total();
  stats.expires = entry.expires.total();
  stats.cancels = entry.cancels.total();
  const double elapsed = ToSeconds(max_ts_ - options_.start);
  if (elapsed > 0) {
    stats.mean_rate = static_cast<double>(stats.sets) / elapsed;
  }
  if (current_window_ > 0) {
    stats.last_rate =
        static_cast<double>(entry.sets.Count(current_window_ - 1)) / window_seconds_;
  }
  stats.peak_rate = static_cast<double>(entry.sets.peak_count()) / window_seconds_;
  stats.peak_at_s = ToSeconds(options_.start +
                              static_cast<SimTime>(entry.sets.peak_window()) *
                                  options_.window);
  if (with_burst) {
    stats.burst_active = entry.burst.active();
    stats.bursts = entry.burst.bursts();
    stats.burst_peak_rate = entry.burst.peak_rate();
  }
  return stats;
}

LiveSnapshot LiveAnalyzer::TakeSnapshot(size_t top_k) const {
  LiveSnapshot snapshot;
  snapshot.now = max_ts_;
  snapshot.window = options_.window;
  snapshot.records = records_;

  auto collect = [&](const std::map<std::string, Entry>& series, bool with_burst) {
    std::vector<LiveSeriesStats> out;
    out.reserve(series.size());
    for (const auto& [label, entry] : series) {
      out.push_back(Stats(label, entry, with_burst));
    }
    std::sort(out.begin(), out.end(),
              [](const LiveSeriesStats& a, const LiveSeriesStats& b) {
                if (a.sets != b.sets) {
                  return a.sets > b.sets;
                }
                return a.label < b.label;
              });
    if (top_k > 0 && out.size() > top_k) {
      out.resize(top_k);
    }
    return out;
  };
  snapshot.processes = collect(processes_, /*with_burst=*/true);
  snapshot.origins = collect(origins_, /*with_burst=*/false);

  snapshot.windows_evicted = windows_evicted();
  return snapshot;
}

std::vector<RateSeries> LiveAnalyzer::SetRateResult() const {
  const SimTime end = any_records_ ? max_ts_ : 0;
  if (end <= options_.start || options_.window <= 0) {
    return {};
  }
  const size_t window_count = static_cast<size_t>(
      (end - options_.start + options_.window - 1) / options_.window);
  const uint64_t end_window =
      static_cast<uint64_t>((end - options_.start) / options_.window);

  std::vector<RateSeries> out;
  for (const auto& [label, entry] : processes_) {
    // Records at the derived trace-end timestamp fall outside [start, end),
    // exactly as in RatesPass::Result.
    const uint64_t at_end = entry.at_end.At(max_ts_);
    if (entry.sets.total() <= at_end) {
      continue;  // the offline scan would never have created this series
    }
    RateSeries series;
    series.label = label;
    series.per_window.assign(window_count, 0);
    if (entry.sets.any()) {
      const uint64_t hi = std::min<uint64_t>(entry.sets.hi(), window_count - 1);
      for (uint64_t w = entry.sets.lo(); w <= hi; ++w) {
        series.per_window[w] = entry.sets.Count(w);
      }
    }
    if (at_end > 0 && end_window < window_count) {
      series.per_window[end_window] -= at_end;
    }
    out.push_back(std::move(series));
  }
  return out;
}

uint64_t LiveAnalyzer::windows_evicted() const {
  uint64_t evicted = 0;
  for (const auto* series : {&processes_, &origins_}) {
    for (const auto& [label, entry] : *series) {
      evicted += entry.sets.evicted_windows() + entry.expires.evicted_windows() +
                 entry.cancels.evicted_windows();
    }
  }
  return evicted;
}

void LiveAnalyzer::SyncObs() {
  if (gauge_window_evictions_ == nullptr) {
    return;
  }
  gauge_window_evictions_->Set(static_cast<int64_t>(windows_evicted()));
  gauge_series_->Set(static_cast<int64_t>(processes_.size() + origins_.size()));
}

}  // namespace live
}  // namespace tempo

// Live rates and bursts over the relay drain path — Figure 1 computed online.
//
// A LiveAnalyzer taps the globally timestamp-ordered record stream a
// RelayDrainer emits (hook `Ingest` into the drainer's EmitFn, before or
// after the TraceStreamWriter) and maintains, in bounded memory, the two
// things an operator of a timer service watches for rates while it runs:
//
//   1. Sliding-window rate series — per-window set/expire/cancel counts per
//      process label and per origin (the callsite's facility prefix), kept
//      in fixed-size RateRings. The per-label set series obeys the
//      load-bearing identity contract: for a finished run with no ring
//      eviction, SetRateResult() is element-for-element equal to what the
//      offline RatesPass computes from the recorded trace of the same run.
//      The two share their rules rather than mirror them: pids are
//      labelled by RateGrouping::LabelFor, and the derived-end rule
//      (records at the final timestamp fall outside the analysis range)
//      is the same EndTally (rates.h).
//   2. A streaming burst detector per process label (threshold +
//      hysteresis, burst.h) that flags the Outlook 7000 sets/s watchdog
//      idiom while it happens and surfaces it through obs gauges.
//
// Firing slack (SlackTracker) and the usage-pattern mix (PatternTracker)
// are separate taps on the same drain path, each folding the offline
// pass's own state.
//
// Single-threaded consumer, like the drainer that feeds it: all calls must
// come from one thread (or be externally serialised). The obs instruments
// it updates follow the registry's single-writer rule — snapshot from a
// quiescent thread.

#ifndef TEMPO_SRC_LIVE_LIVE_ANALYZER_H_
#define TEMPO_SRC_LIVE_LIVE_ANALYZER_H_

#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/analysis/rates.h"
#include "src/live/burst.h"
#include "src/live/window_ring.h"
#include "src/obs/metrics.h"
#include "src/trace/callsite.h"
#include "src/trace/record.h"

namespace tempo {
namespace live {

struct LiveOptions {
  // Rate window; matches RateOptions::window for the identity contract.
  SimDuration window = kSecond;
  // Analysis range start; records before it are ignored (but still advance
  // the trace-end clock, exactly as in RatesPass).
  SimTime start = 0;
  // Windows retained per series ring (rounded up to a power of two). The
  // live ≡ offline identity holds while nothing has been evicted.
  size_t ring_windows = 1024;
  // Process labelling, shared with the offline pass (Figure 1 grouping).
  RateGrouping grouping;
  // Resolves callsites to origin labels (facility prefix before the first
  // '/'); nullptr disables the per-origin series. Must outlive the analyzer.
  const CallsiteRegistry* callsites = nullptr;
  // Burst detection over per-process set rates.
  BurstThresholds burst;
  // Label on this analyzer's obs instruments. Empty disables them (and the
  // per-series burst instruments): required when many analyzers coexist in
  // one process, e.g. simulated fleet hosts, where shared instruments
  // would break the registry's single-writer rule.
  std::string stats_label = "live";
};

// One series' worth of display statistics inside a LiveSnapshot.
struct LiveSeriesStats {
  std::string label;
  uint64_t sets = 0;
  uint64_t expires = 0;
  uint64_t cancels = 0;
  double mean_rate = 0.0;   // sets/s over [start, now)
  double last_rate = 0.0;   // sets/s in the last closed window
  double peak_rate = 0.0;   // largest single-window sets/s
  double peak_at_s = 0.0;   // window start of the peak, seconds
  bool burst_active = false;
  uint64_t bursts = 0;
  double burst_peak_rate = 0.0;
};

// Point-in-time view for tempotop and tests.
struct LiveSnapshot {
  SimTime now = 0;
  SimDuration window = 0;
  uint64_t records = 0;
  std::vector<LiveSeriesStats> processes;  // top-K by total sets
  std::vector<LiveSeriesStats> origins;    // top-K by total sets
  uint64_t windows_evicted = 0;  // ring evictions across all series
};

class LiveAnalyzer {
 public:
  explicit LiveAnalyzer(LiveOptions options);
  LiveAnalyzer(const LiveAnalyzer&) = delete;
  LiveAnalyzer& operator=(const LiveAnalyzer&) = delete;

  // Consumes one record of the drainer's ordered merge. Hot path.
  void Ingest(const TraceRecord& record);

  // Snapshot of the top `top_k` process/origin series (0: all).
  LiveSnapshot TakeSnapshot(size_t top_k = 0) const;

  // The per-label set-rate series of the finished run, with RatesPass
  // semantics (derived end, end-timestamp exclusion, label ordering).
  // Identical to the offline pass while windows_evicted() == 0.
  std::vector<RateSeries> SetRateResult() const;

  // Publishes slow-moving aggregates (windows evicted, series) into obs
  // gauges; call before a registry snapshot.
  void SyncObs();

  uint64_t records_ingested() const { return records_; }
  SimTime now() const { return max_ts_; }
  uint64_t windows_evicted() const;

 private:
  struct Entry {
    RateRing sets;
    RateRing expires;
    RateRing cancels;
    BurstDetector burst;
    // Next window this entry's burst detector will see (windows below it
    // are closed and already evaluated).
    uint64_t next_eval = 0;
    // Sets counted at the running trace-end timestamp (the derived-end
    // rule RatesPass applies too).
    EndTally at_end;

    Entry(size_t ring_windows, const BurstThresholds& thresholds,
          const std::string& burst_label)
        : sets(ring_windows), expires(ring_windows), cancels(ring_windows),
          burst(thresholds, burst_label) {}
  };

  Entry& ProcessEntry(const std::string& label);
  Entry* OriginEntry(CallsiteId callsite);
  void AdvanceWindows(uint64_t window);
  LiveSeriesStats Stats(const std::string& label, const Entry& entry,
                        bool with_burst) const;

  LiveOptions options_;
  double window_seconds_;
  // Label-keyed series; std::map keeps result ordering identical to the
  // offline RatesPass. Node stability lets the pid/callsite caches hold
  // plain pointers.
  std::map<std::string, Entry> processes_;
  std::map<std::string, Entry> origins_;
  std::unordered_map<Pid, Entry*> pid_cache_;        // nullptr: dropped label
  std::unordered_map<CallsiteId, Entry*> origin_cache_;
  uint64_t records_ = 0;
  SimTime max_ts_ = 0;
  bool any_records_ = false;
  uint64_t current_window_ = 0;
  obs::Counter* metric_records_ = nullptr;
  obs::Gauge* gauge_window_evictions_ = nullptr;
  obs::Gauge* gauge_series_ = nullptr;
};

}  // namespace live
}  // namespace tempo

#endif  // TEMPO_SRC_LIVE_LIVE_ANALYZER_H_

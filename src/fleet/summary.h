// What one host tells the fleet about itself.
//
// A HostSummary is the unit of fleet observation: a compact, cumulative
// digest of one host's live analysis state (src/live) — per-process and
// per-origin set/expire/cancel totals and rates, burst detector state, the
// live usage-pattern mix, relay-channel drop counters, and a small
// metrics snapshot — stamped with the host's name, clock and a publish
// sequence number. Hosts publish summaries periodically; the wire format
// (wire.h) frames them; the aggregator (aggregator.h) merges them across
// the fleet. Summaries are cumulative (totals since host start, not
// deltas), so a lost frame degrades freshness but never corrupts totals —
// the aggregator detects the loss from the sequence gap instead.

#ifndef TEMPO_SRC_FLEET_SUMMARY_H_
#define TEMPO_SRC_FLEET_SUMMARY_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/analysis/latency.h"
#include "src/live/live_analyzer.h"
#include "src/live/pattern_tracker.h"
#include "src/live/slack_tracker.h"
#include "src/sim/time.h"
#include "src/trace/relay.h"

namespace tempo {
namespace fleet {

// One rate series (a process label or an origin) as published by a host.
// Mirrors live::LiveSeriesStats field for field.
struct SeriesSummary {
  std::string label;
  uint64_t sets = 0;
  uint64_t expires = 0;
  uint64_t cancels = 0;
  double mean_rate = 0.0;
  double last_rate = 0.0;
  double peak_rate = 0.0;
  bool burst_active = false;
  uint64_t bursts = 0;
  double burst_peak_rate = 0.0;

  bool operator==(const SeriesSummary&) const = default;
};

// One relay channel's accept/drop accounting.
struct ChannelSummary {
  std::string name;
  uint64_t accepted = 0;
  uint64_t dropped = 0;

  bool operator==(const ChannelSummary&) const = default;
};

// One named scalar from the host's metrics snapshot (counters/gauges the
// host chooses to export fleet-wide).
struct MetricSummary {
  std::string name;
  int64_t value = 0;

  bool operator==(const MetricSummary&) const = default;
};

// The host's firing-accuracy digest: the full log2 slack histogram (64
// fixed buckets, so it merges exactly across hosts — no quantile sketch
// approximation) plus the span counters around it. Cumulative like the
// rest of the summary.
struct SlackDigest {
  SlackHist slack;  // total (fire - requested) per fired span
  uint64_t canceled = 0;
  uint64_t rearmed = 0;
  uint64_t early = 0;
  uint64_t open = 0;

  void Merge(const SlackDigest& o) {
    slack.Merge(o.slack);
    canceled += o.canceled;
    rearmed += o.rearmed;
    early += o.early;
    open += o.open;
  }
  bool operator==(const SlackDigest&) const = default;
};

// Builds the digest from a tracker's fold.
SlackDigest DigestFrom(const SlackState& state);

struct HostSummary {
  std::string host;        // fleet-unique host name
  uint64_t sequence = 0;   // publish counter, starts at 1; gaps = lost frames
  SimTime now = 0;         // host clock at publish
  SimDuration window = 0;  // rate window of the series below
  uint64_t records = 0;    // records ingested by the host's analyzer

  std::vector<SeriesSummary> processes;
  std::vector<SeriesSummary> origins;
  // Pattern name -> cluster groups the offline rule assigns it, over the
  // records since the host's pattern fold last reset (PatternTracker::Mix);
  // tracked counts the fold's groups, evictions the groups resets dropped.
  std::vector<std::pair<std::string, uint64_t>> patterns;
  uint64_t classifier_tracked = 0;
  uint64_t classifier_evictions = 0;
  uint64_t windows_evicted = 0;

  std::vector<ChannelSummary> channels;
  std::vector<MetricSummary> metrics;
  SlackDigest slack;

  bool operator==(const HostSummary&) const = default;

  // Total relay drops across the host's channels.
  uint64_t relay_dropped() const;
};

// Builds a host's summary from its live analyzer snapshot and relay
// channel set (either may be what tempotop already displays locally).
// `channels`, `slack` and `patterns` may be nullptr. The caller stamps
// host/sequence/metrics.
HostSummary BuildHostSummary(const std::string& host, uint64_t sequence,
                             const live::LiveSnapshot& snapshot,
                             RelayChannelSet* channels,
                             const live::SlackTracker* slack = nullptr,
                             const live::PatternTracker* patterns = nullptr);

}  // namespace fleet
}  // namespace tempo

#endif  // TEMPO_SRC_FLEET_SUMMARY_H_

#include "src/fleet/summary.h"

namespace tempo {
namespace fleet {

namespace {

SeriesSummary FromStats(const live::LiveSeriesStats& stats) {
  SeriesSummary series;
  series.label = stats.label;
  series.sets = stats.sets;
  series.expires = stats.expires;
  series.cancels = stats.cancels;
  series.mean_rate = stats.mean_rate;
  series.last_rate = stats.last_rate;
  series.peak_rate = stats.peak_rate;
  series.burst_active = stats.burst_active;
  series.bursts = stats.bursts;
  series.burst_peak_rate = stats.burst_peak_rate;
  return series;
}

}  // namespace

SlackDigest DigestFrom(const SlackState& state) {
  SlackDigest digest;
  digest.slack = state.total();
  digest.canceled = state.canceled_spans();
  digest.rearmed = state.rearmed_spans();
  digest.early = state.early_fires();
  digest.open = state.open_spans();
  return digest;
}

uint64_t HostSummary::relay_dropped() const {
  uint64_t dropped = 0;
  for (const ChannelSummary& channel : channels) {
    dropped += channel.dropped;
  }
  return dropped;
}

HostSummary BuildHostSummary(const std::string& host, uint64_t sequence,
                             const live::LiveSnapshot& snapshot,
                             RelayChannelSet* channels,
                             const live::SlackTracker* slack,
                             const live::PatternTracker* patterns) {
  HostSummary summary;
  summary.host = host;
  summary.sequence = sequence;
  summary.now = snapshot.now;
  summary.window = snapshot.window;
  summary.records = snapshot.records;
  summary.processes.reserve(snapshot.processes.size());
  for (const live::LiveSeriesStats& stats : snapshot.processes) {
    summary.processes.push_back(FromStats(stats));
  }
  summary.origins.reserve(snapshot.origins.size());
  for (const live::LiveSeriesStats& stats : snapshot.origins) {
    summary.origins.push_back(FromStats(stats));
  }
  summary.windows_evicted = snapshot.windows_evicted;
  if (channels != nullptr) {
    for (size_t i = 0; i < channels->size(); ++i) {
      const RelayChannel* channel = channels->channel(i);
      summary.channels.push_back(
          {channel->name(), channel->accepted(), channel->dropped()});
    }
  }
  if (slack != nullptr) {
    summary.slack = DigestFrom(slack->state());
  }
  if (patterns != nullptr) {
    summary.patterns = patterns->Mix();
    summary.classifier_tracked = patterns->tracked();
    summary.classifier_evictions = patterns->evictions();
  }
  return summary;
}

}  // namespace fleet
}  // namespace tempo

#include "src/analysis/scatter.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <utility>

#include "src/analysis/render.h"

namespace tempo {

namespace {

struct BucketKey {
  int timeout_bucket;
  int percent_bucket;
  bool expired;
  bool operator<(const BucketKey& o) const {
    if (timeout_bucket != o.timeout_bucket) {
      return timeout_bucket < o.timeout_bucket;
    }
    if (percent_bucket != o.percent_bucket) {
      return percent_bucket < o.percent_bucket;
    }
    return expired < o.expired;
  }
};
using Buckets = std::map<BucketKey, uint64_t>;

void AddEpisodes(const std::vector<Episode>& episodes, const ScatterOptions& options,
                 Buckets* buckets) {
  for (const Episode& e : episodes) {
    if (e.timeout <= 0) {
      continue;  // immediate / past expiry: not plotted
    }
    if (options.exclude_pids.count(e.pid) != 0) {
      continue;
    }
    bool expired = false;
    switch (e.end) {
      case EpisodeEnd::kExpired:
        expired = true;
        break;
      case EpisodeEnd::kCanceled:
        expired = false;
        break;
      case EpisodeEnd::kReset:
        if (!options.include_resets) {
          continue;
        }
        expired = false;
        break;
      case EpisodeEnd::kOpen:
        continue;
    }
    const double pct = 100.0 * e.fraction();
    if (pct > options.max_percent) {
      continue;  // figure cut-off
    }
    BucketKey key{};
    key.timeout_bucket = static_cast<int>(std::floor(
        std::log10(ToSeconds(e.timeout)) * options.buckets_per_decade));
    key.percent_bucket = static_cast<int>(std::floor(pct / options.percent_bucket));
    key.expired = expired;
    ++(*buckets)[key];
  }
}

std::vector<ScatterPoint> Points(const Buckets& buckets, const ScatterOptions& options) {
  std::vector<ScatterPoint> points;
  points.reserve(buckets.size());
  for (const auto& [key, count] : buckets) {
    ScatterPoint p;
    p.timeout_seconds = std::pow(
        10.0, (static_cast<double>(key.timeout_bucket) + 0.5) /
                  static_cast<double>(options.buckets_per_decade));
    p.percent = (static_cast<double>(key.percent_bucket) + 0.5) * options.percent_bucket;
    p.count = count;
    p.expired = key.expired;
    points.push_back(p);
  }
  return points;
}

}  // namespace

void ScatterPass::Accumulate(std::span<const TraceRecord> records) {
  episodes_.Accumulate(records);
}

void ScatterPass::Merge(AnalysisPass&& other) {
  episodes_.Merge(std::move(dynamic_cast<ScatterPass&>(other).episodes_));
}

std::vector<ScatterPoint> ScatterPass::Result() const {
  Buckets buckets;
  episodes_.ForEachGroup(
      [&](const std::vector<Episode>& group) { AddEpisodes(group, options_, &buckets); });
  return Points(buckets, options_);
}

std::unique_ptr<AnalysisPass> ScatterPass::Fork() const {
  return std::make_unique<ScatterPass>(options_);
}

void ScatterPass::Render(RenderSink& sink) {
  sink.Section("scatter", "scatter:\n" + RenderScatter(Result()) + "\n");
}

}  // namespace tempo

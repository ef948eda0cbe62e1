#include "src/analysis/histogram.h"

#include <algorithm>
#include <utility>

#include "src/analysis/render.h"
#include "src/oslinux/jiffies.h"

namespace tempo {

HistogramPass::BucketKey HistogramPass::KeyFor(const TraceRecord& r) const {
  BucketKey key{};
  if (options_.jiffy_quantise_kernel && !r.is_user() &&
      (r.flags & kFlagJiffyWheel) != 0) {
    // Kernel wheel timers: read the exact jiffy delta off the absolute
    // expiry, as the paper's instrumentation does — this undoes the
    // sub-2 ms conversion jitter of the observed relative value.
    key.jiffy = true;
    key.quantised = static_cast<int64_t>(TimeToJiffies(r.expiry)) -
                    static_cast<int64_t>(TimeToJiffies(r.timestamp));
  } else {
    key.jiffy = false;
    // 0.1 ms buckets for exactly supplied values.
    const SimDuration grain = kMillisecond / 10;
    key.quantised = (r.timeout + grain / 2) / grain;
  }
  return key;
}

void HistogramPass::Accumulate(std::span<const TraceRecord> records) {
  if (options_.exclude_countdowns) {
    episodes_.Accumulate(records);
  }
  for (const TraceRecord& r : records) {
    if (r.op != TimerOp::kSet && r.op != TimerOp::kBlock) {
      continue;
    }
    if (options_.user_only && !r.is_user()) {
      continue;
    }
    if (options_.exclude_pids.count(r.pid) != 0) {
      continue;
    }
    const BucketKey key = KeyFor(r);
    ++total_;
    ++counts_[key];
    if (options_.exclude_countdowns) {
      ++per_timer_[r.timer][key];
    }
  }
}

void HistogramPass::Merge(AnalysisPass&& other) {
  auto& later = dynamic_cast<HistogramPass&>(other);
  total_ += later.total_;
  for (const auto& [key, count] : later.counts_) {
    counts_[key] += count;
  }
  for (auto& [timer, keys] : later.per_timer_) {
    auto& mine = per_timer_[timer];
    for (const auto& [key, count] : keys) {
      mine[key] += count;
    }
  }
  episodes_.Merge(std::move(later.episodes_));
}

ValueHistogram HistogramPass::Result() const {
  std::map<BucketKey, uint64_t> counts = counts_;
  uint64_t total = total_;
  if (options_.exclude_countdowns) {
    // Identify countdown timers now that every episode is known, then
    // back their contributions out — identical counts to the serial
    // filter that skipped their records up front.
    episodes_.ForEachGroup([&](const std::vector<Episode>& group) {
      const TimerClass c = ClassifyGroup(group, options_.classify);
      if (c.pattern != UsagePattern::kCountdown || c.key.b != 0) {
        return;
      }
      const auto it = per_timer_.find(c.key.a);
      if (it == per_timer_.end()) {
        return;
      }
      for (const auto& [key, count] : it->second) {
        auto bucket = counts.find(key);
        bucket->second -= count;
        if (bucket->second == 0) {
          counts.erase(bucket);
        }
        total -= count;
      }
    });
  }

  ValueHistogram histogram;
  histogram.total_sets = total;
  if (total == 0) {
    return histogram;
  }
  uint64_t covered = 0;
  for (const auto& [key, count] : counts) {
    const double percent = 100.0 * static_cast<double>(count) / static_cast<double>(total);
    if (percent < options_.min_percent) {
      continue;
    }
    ValueBucket bucket;
    bucket.count = count;
    bucket.percent = percent;
    if (key.jiffy) {
      bucket.jiffies = key.quantised;
      bucket.value = key.quantised * kJiffy;
    } else {
      bucket.jiffies = -1;
      bucket.value = key.quantised * (kMillisecond / 10);
    }
    covered += count;
    histogram.buckets.push_back(bucket);
  }
  std::sort(histogram.buckets.begin(), histogram.buckets.end(),
            [](const ValueBucket& a, const ValueBucket& b) { return a.value < b.value; });
  histogram.coverage_percent =
      100.0 * static_cast<double>(covered) / static_cast<double>(total);
  return histogram;
}

std::unique_ptr<AnalysisPass> HistogramPass::Fork() const {
  return std::make_unique<HistogramPass>(options_, show_jiffies_);
}

void HistogramPass::Render(RenderSink& sink) {
  sink.Section("values",
               "common values:\n" + RenderValueHistogram(Result(), show_jiffies_) + "\n");
}

}  // namespace tempo

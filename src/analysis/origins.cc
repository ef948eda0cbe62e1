#include "src/analysis/origins.h"

#include <algorithm>
#include <map>
#include <utility>

#include "src/analysis/render.h"
#include "src/oslinux/jiffies.h"

namespace tempo {

namespace {

// Canonicalises a timeout for grouping: kernel values to whole jiffies,
// user values to 0.1 ms.
SimDuration Canonical(SimDuration value, bool user) {
  if (value <= 0) {
    return 0;
  }
  if (!user) {
    return ((value + kJiffy / 2) / kJiffy) * kJiffy;
  }
  const SimDuration grain = kMillisecond / 10;
  return ((value + grain / 2) / grain) * grain;
}

}  // namespace

std::vector<OriginRow> ComputeOriginsFromClasses(const std::vector<TimerClass>& classes,
                                                 const CallsiteRegistry& callsites,
                                                 const OriginOptions& options) {
  struct Agg {
    uint64_t sets = 0;
    std::map<UsagePattern, uint64_t> patterns;
    bool user = false;
  };
  std::map<std::pair<SimDuration, CallsiteId>, Agg> rows;
  uint64_t total_sets = 0;

  for (const TimerClass& c : classes) {
    if (c.dominant_timeout <= 0) {
      continue;
    }
    const SimDuration value = Canonical(c.dominant_timeout, c.user);
    Agg& agg = rows[{value, c.callsite}];
    agg.sets += c.episodes;
    agg.patterns[c.pattern] += c.episodes;
    agg.user = c.user;
    total_sets += c.episodes;
  }
  if (total_sets == 0) {
    return {};
  }

  std::vector<OriginRow> out;
  for (const auto& [key, agg] : rows) {
    const double percent =
        100.0 * static_cast<double>(agg.sets) / static_cast<double>(total_sets);
    if (percent < options.min_percent && key.first < options.always_include_above) {
      continue;
    }
    OriginRow row;
    row.value = key.first;
    row.origin = callsites.Name(key.second);
    row.sets = agg.sets;
    row.user = agg.user;
    // Modal pattern, ignoring single-use if something better exists.
    uint64_t best = 0;
    for (const auto& [pattern, count] : agg.patterns) {
      const bool better = count > best ||
                          (count == best && pattern != UsagePattern::kSingleUse &&
                           row.pattern == UsagePattern::kSingleUse);
      if (better) {
        best = count;
        row.pattern = pattern;
      }
    }
    out.push_back(std::move(row));
  }
  std::sort(out.begin(), out.end(), [](const OriginRow& a, const OriginRow& b) {
    if (a.value != b.value) {
      return a.value < b.value;
    }
    return a.origin < b.origin;
  });
  return out;
}

void OriginsPass::Accumulate(std::span<const TraceRecord> records) {
  episodes_.Accumulate(records);
}

void OriginsPass::Merge(AnalysisPass&& other) {
  episodes_.Merge(std::move(dynamic_cast<OriginsPass&>(other).episodes_));
}

std::vector<OriginRow> OriginsPass::Result() const {
  std::vector<TimerClass> classes;
  episodes_.ForEachGroup([&](const std::vector<Episode>& group) {
    classes.push_back(ClassifyGroup(group, options_.classify));
  });
  return ComputeOriginsFromClasses(classes, *callsites_, options_);
}

std::unique_ptr<AnalysisPass> OriginsPass::Fork() const {
  return std::make_unique<OriginsPass>(callsites_, options_);
}

void OriginsPass::Render(RenderSink& sink) {
  sink.Section("origins", "origins:\n" + RenderOrigins(Result()) + "\n");
}

}  // namespace tempo

#include "src/analysis/summary.h"

#include <algorithm>
#include <utility>

#include "src/analysis/render.h"

namespace tempo {

void SummaryPass::Accumulate(std::span<const TraceRecord> records) {
  for (const TraceRecord& r : records) {
    ++partial_.accesses;
    ++(r.is_user() ? partial_.user_space : partial_.kernel);
    if (r.op == TimerOp::kInit) {
      if (r.timer != kInvalidTimerId) {
        join_.Note(r.timer);
      }
      continue;
    }
    auto& entry = join_.Touch(r);
    if (join_.size() > touched_order_.size()) {  // r is the timer's first op
      touched_order_.push_back(r.timer);
      segment_max_.push_back(0);
    }
    if (IsArm(r.op)) {
      ++partial_.set;
      join_.Arm(entry, {});
      segment_max_.back() = std::max<uint64_t>(segment_max_.back(), join_.open_count());
      continue;
    }
    ++(EndFor(r.op, r.flags) == EpisodeEnd::kCanceled ? partial_.canceled : partial_.expired);
    if (entry.open) {
      join_.Disarm(entry);
    }
  }
}

void SummaryPass::Merge(AnalysisPass&& other) {
  auto& later = dynamic_cast<SummaryPass&>(other);

  partial_.accesses += later.partial_.accesses;
  partial_.user_space += later.partial_.user_space;
  partial_.kernel += later.partial_.kernel;
  partial_.set += later.partial_.set;
  partial_.expired += later.partial_.expired;
  partial_.canceled += later.partial_.canceled;

  // Fold the later range's segment maxima into ours. A timer we left open
  // stays outstanding through the later range until that range first
  // touches it, so the later range's local open count undercounts the
  // true concurrency by `carried`: our open timers it has not yet touched.
  size_t current = segment_max_.size() - 1;
  uint64_t carried = join_.open_count();
  for (size_t k = 0; k <= later.touched_order_.size(); ++k) {
    const uint64_t sampled = later.segment_max_[k];
    if (sampled > 0) {
      segment_max_[current] = std::max(segment_max_[current], sampled + carried);
    }
    if (k < later.touched_order_.size()) {
      const TimerId timer = later.touched_order_[k];
      const auto* mine = join_.Find(timer);
      if (mine == nullptr || mine->first.op == TimerOp::kInit) {
        touched_order_.push_back(timer);
        segment_max_.push_back(0);
        current = segment_max_.size() - 1;
      } else if (mine->open) {
        --carried;  // now governed by the later range's own tracking
      }
    }
  }
  join_.Merge(
      std::move(later.join_), [](std::monostate, const FirstOp&) {},
      [](std::monostate none) { return none; });
}

TraceSummary SummaryPass::Result() const {
  TraceSummary s = partial_;
  s.label = label_;
  // kInvalidTimerId is never noted, so it counts only if it was touched.
  s.timers = join_.size() + join_.noted() - (join_.Find(kInvalidTimerId) != nullptr ? 1 : 0);
  s.concurrency = *std::max_element(segment_max_.begin(), segment_max_.end());
  return s;
}

std::unique_ptr<AnalysisPass> SummaryPass::Fork() const {
  return std::make_unique<SummaryPass>(label_);
}

void SummaryPass::Render(RenderSink& sink) {
  sink.Section("summary", RenderSummaryTable({Result()}) + "\n");
}

}  // namespace tempo

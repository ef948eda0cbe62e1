#include "src/analysis/summary.h"

#include <algorithm>
#include <utility>

#include "src/analysis/render.h"

namespace tempo {

void SummaryPass::Touch(TimerId timer) {
  if (touched_index_.emplace(timer, touched_order_.size()).second) {
    touched_order_.push_back(timer);
    segment_max_.push_back(0);
  }
}

void SummaryPass::Accumulate(std::span<const TraceRecord> records) {
  for (const TraceRecord& r : records) {
    ++partial_.accesses;
    if (r.is_user()) {
      ++partial_.user_space;
    } else {
      ++partial_.kernel;
    }
    if (r.timer != kInvalidTimerId) {
      timers_.insert(r.timer);
    }
    switch (r.op) {
      case TimerOp::kInit:
        break;
      case TimerOp::kSet:
      case TimerOp::kBlock:
        ++partial_.set;
        Touch(r.timer);
        open_.insert(r.timer);
        segment_max_.back() = std::max<uint64_t>(segment_max_.back(), open_.size());
        break;
      case TimerOp::kExpire:
        ++partial_.expired;
        Touch(r.timer);
        open_.erase(r.timer);
        break;
      case TimerOp::kCancel:
        ++partial_.canceled;
        Touch(r.timer);
        open_.erase(r.timer);
        break;
      case TimerOp::kUnblock:
        if ((r.flags & kFlagWaitSatisfied) != 0) {
          ++partial_.canceled;
        } else {
          ++partial_.expired;
        }
        Touch(r.timer);
        open_.erase(r.timer);
        break;
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
  timers_.insert(later.timers_.begin(), later.timers_.end());

  // Fold the later range's segment maxima into ours. A timer of our open
  // set stays outstanding through the later range until that range first
  // touches it, so the later range's local |open| undercounts the true
  // concurrency by `carried`: our open timers it has not yet seen.
  size_t current = segment_max_.size() - 1;
  uint64_t carried = open_.size();
  for (size_t k = 0; k <= later.touched_order_.size(); ++k) {
    const uint64_t sampled = later.segment_max_[k];
    if (sampled > 0) {
      segment_max_[current] = std::max(segment_max_[current], sampled + carried);
    }
    if (k < later.touched_order_.size()) {
      const TimerId timer = later.touched_order_[k];
      if (open_.count(timer) != 0) {
        --carried;  // now governed by the later range's own tracking
      }
      if (touched_index_.emplace(timer, touched_order_.size()).second) {
        touched_order_.push_back(timer);
        segment_max_.push_back(0);
        current = segment_max_.size() - 1;
      }
    }
  }

  // Merged open set: our opens the later range never touched, plus its own.
  for (auto it = open_.begin(); it != open_.end();) {
    if (later.touched_index_.count(*it) != 0) {
      it = open_.erase(it);
    } else {
      ++it;
    }
  }
  open_.insert(later.open_.begin(), later.open_.end());
}

TraceSummary SummaryPass::Result() const {
  TraceSummary s = partial_;
  s.label = label_;
  s.timers = timers_.size();
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

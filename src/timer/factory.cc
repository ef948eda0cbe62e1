// Factory and TimerQueue base-class behaviour: the options constructor,
// the batch-entry-point defaults, and the monotonic-Advance boundary check.

#include <memory>

#include "src/timer/hashed_wheel.h"
#include "src/timer/heap_queue.h"
#include "src/timer/hierarchical_wheel.h"
#include "src/timer/lawn.h"
#include "src/timer/queue.h"
#include "src/timer/tree_queue.h"

namespace tempo {

size_t TimerQueue::Advance(SimTime now) {
  if (now < advance_watermark_) {
    // A backwards clock is clamped to the high-water mark and counted,
    // so no implementation's hand/cascade state can be corrupted.
    ++backwards_advances_;
    now = advance_watermark_;
  }
  advance_watermark_ = now;
  return AdvanceTo(now);
}

void TimerQueue::ScheduleBatch(std::span<TimerBatchEntry> entries,
                               const TimerQueueCallback& cb) {
  for (TimerBatchEntry& entry : entries) {
    entry.handle = Schedule(entry.expiry, cb);
  }
}

size_t TimerQueue::CancelBatch(std::span<const TimerHandle> handles) {
  size_t canceled = 0;
  for (const TimerHandle handle : handles) {
    canceled += Cancel(handle) ? 1 : 0;
  }
  return canceled;
}

std::unique_ptr<TimerQueue> MakeTimerQueue(const TimerQueueOptions& options) {
  const std::string& label =
      options.stats_label.empty() ? options.name : options.stats_label;
  if (options.name == "heap") {
    return std::make_unique<HeapTimerQueue>(label);
  }
  if (options.name == "tree") {
    return std::make_unique<TreeTimerQueue>(label);
  }
  if (options.name == "hashed_wheel") {
    return std::make_unique<HashedWheelTimerQueue>(options.granularity,
                                                   options.wheel_slots, label);
  }
  if (options.name == "hierarchical_wheel") {
    return std::make_unique<HierarchicalWheelTimerQueue>(options.granularity, label);
  }
  if (options.name == "lawn") {
    return std::make_unique<LawnTimerQueue>(options.granularity, label);
  }
  return nullptr;
}

std::vector<std::string> TimerQueueNames() {
  return {"heap", "tree", "hashed_wheel", "hierarchical_wheel", "lawn"};
}

TimerQueueStats TimerQueueStats::For(const std::string& queue) {
  obs::Registry& reg = obs::Registry::Global();
  const char* ops_help = "Timer-queue operations by implementation and op";
  const char* lat_help =
      "Timer-queue operation latency in probe-clock cycles, timed on about one call in 64 "
      "(count is timed calls; timer_ops counts every call)";
  TimerQueueStats stats;
  stats.set_ops = reg.GetCounter("timer_ops", {{"queue", queue}, {"op", "set"}}, ops_help);
  stats.cancel_ops =
      reg.GetCounter("timer_ops", {{"queue", queue}, {"op", "cancel"}}, ops_help);
  stats.expire_ops =
      reg.GetCounter("timer_ops", {{"queue", queue}, {"op", "expire"}}, ops_help);
  stats.resched_ops =
      reg.GetCounter("timer_ops", {{"queue", queue}, {"op", "reschedule"}}, ops_help);
  stats.set_cycles =
      reg.GetHistogram("timer_op_cycles", {{"queue", queue}, {"op", "set"}}, lat_help);
  stats.cancel_cycles =
      reg.GetHistogram("timer_op_cycles", {{"queue", queue}, {"op", "cancel"}}, lat_help);
  stats.advance_cycles =
      reg.GetHistogram("timer_op_cycles", {{"queue", queue}, {"op", "advance"}}, lat_help);
  stats.refresh_cycles =
      reg.GetHistogram("timer_op_cycles", {{"queue", queue}, {"op", "refresh"}}, lat_help);
  return stats;
}

}  // namespace tempo

// The /proc/timer_stats debug facility.
//
// Section 3.1: "Linux already includes functionality to collect timer
// statistics as part of the kernel debug code, providing a rough estimation
// of timer usage in the Linux kernel. However, in order to observe the
// details and duration of different timers, additional information needs to
// be observed" — which is why the study built full tracing instead.
//
// tempo provides the facility anyway, both because a downstream user wants
// the cheap always-on counter view, and because it demonstrates concretely
// what the paper means: timer_stats can tell you WHO sets timers and HOW
// OFTEN, but not lifetimes, cancellation fractions, or values over time.

#ifndef TEMPO_SRC_OSLINUX_TIMER_STATS_H_
#define TEMPO_SRC_OSLINUX_TIMER_STATS_H_

#include <map>
#include <string>
#include <vector>

#include "src/trace/buffer.h"
#include "src/trace/callsite.h"

namespace tempo {

// A timer_stats collector: a TraceSink counting arming operations per
// (call-site, pid). Attach it (possibly via TeeSink) where a TraceRecorder
// would go; Enable/Disable mirror `echo 1 > /proc/timer_stats`.
class TimerStatsCollector : public TraceSink {
 public:
  void Log(const TraceRecord& record) override;

  void Enable(SimTime now);
  void Disable(SimTime now);
  bool enabled() const { return enabled_; }

  struct Row {
    uint64_t count = 0;
    Pid pid = kKernelPid;
    CallsiteId callsite = kUnknownCallsite;
  };

  // Rows sorted by count, descending — the /proc/timer_stats order.
  std::vector<Row> Rows() const;

  // Renders the classic report ("<count>, <pid> <comm> <function>").
  std::string Report(const CallsiteRegistry& callsites) const;

  uint64_t total_events() const { return total_; }
  SimDuration sample_period() const { return last_time_ - enabled_at_; }

 private:
  bool enabled_ = false;
  SimTime enabled_at_ = 0;
  SimTime last_time_ = 0;
  uint64_t total_ = 0;
  std::map<std::pair<CallsiteId, Pid>, uint64_t> counts_;
};

// Fans one record stream out to several sinks (e.g. the study's
// TraceRecorder plus a TimerStatsCollector).
class TeeSink : public TraceSink {
 public:
  void Add(TraceSink* sink) { sinks_.push_back(sink); }
  void Log(const TraceRecord& record) override {
    for (TraceSink* sink : sinks_) {
      sink->Log(record);
    }
  }

 private:
  std::vector<TraceSink*> sinks_;
};

}  // namespace tempo

#endif  // TEMPO_SRC_OSLINUX_TIMER_STATS_H_

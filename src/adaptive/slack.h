// A richer notion of time (Section 5.3).
//
// "Please wake up this thread at some convenient time in the next 10
//  minutes" — most background timers carry far more precision than their
//  owners need. A TimeSpec makes the tolerance explicit ([earliest,
//  latest] window), and the BatchingTimerService coalesces every window
//  that overlaps an already-scheduled wakeup onto that wakeup — the
//  generalisation of Linux's round_jiffies whole-second batching, and the
//  mechanism behind the power savings quantified in bench/power_wakeups.

#ifndef TEMPO_SRC_ADAPTIVE_SLACK_H_
#define TEMPO_SRC_ADAPTIVE_SLACK_H_

#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "src/adaptive/timer_service.h"

namespace tempo {

// A tolerant expiry specification, relative to now.
struct TimeSpec {
  SimDuration earliest = 0;
  SimDuration latest = 0;

  // Exact time: no tolerance.
  static TimeSpec Exact(SimDuration at) { return TimeSpec{at, at}; }
  // "Any time after d, but within d + slack."
  static TimeSpec After(SimDuration d, SimDuration slack) { return TimeSpec{d, d + slack}; }
  // Explicit window.
  static TimeSpec Window(SimDuration earliest, SimDuration latest) {
    return TimeSpec{earliest, latest};
  }

  SimDuration slack() const { return latest - earliest; }
};

// Builds the Section 5.3 "statistical" expiry expression — "after we have
// exceeded k standard deviations above the mean round-trip time to this
// host" — as a concrete window: earliest at mean + k*stddev, with the
// given slack for batching. `mean`/`stddev` typically come from a
// JacobsonEstimator or PhiAccrualDetector tracking the peer.
inline TimeSpec AfterDeviations(SimDuration mean, SimDuration stddev, double k,
                                SimDuration slack = 0) {
  const SimDuration threshold =
      mean + static_cast<SimDuration>(k * static_cast<double>(stddev));
  return TimeSpec::After(threshold, slack);
}

// Coalescing layer over a TimerSurface. Each underlying wakeup serves every
// pending request whose window contains the wakeup time.
class BatchingTimerService {
 public:
  explicit BatchingTimerService(TimerSurface* base);
  ~BatchingTimerService();
  BatchingTimerService(const BatchingTimerService&) = delete;
  BatchingTimerService& operator=(const BatchingTimerService&) = delete;

  // Arms within the window; fire runs at some time in [earliest, latest].
  ServiceTimerId Arm(const TimeSpec& spec, std::function<void()> fire);

  bool Cancel(ServiceTimerId id);

  SimTime Now() const { return base_->Now(); }

  // Requests armed through this layer.
  uint64_t requests() const { return requests_; }
  // Wakeups actually scheduled on the base service — the power metric.
  uint64_t wakeups_scheduled() const { return wakeups_scheduled_; }

 private:
  struct Batch;
  void FireBatch(Batch* batch);

  TimerSurface* base_;
  // Scheduled batches keyed by absolute wakeup time.
  std::map<SimTime, std::unique_ptr<Batch>> batches_;
  std::map<ServiceTimerId, Batch*> live_;
  ServiceTimerId next_ = 1;
  uint64_t requests_ = 0;
  uint64_t wakeups_scheduled_ = 0;
};

// A low-precision periodic ticker over the batching service: "every period
// on average", tolerating per-tick lateness of up to `slack` — e.g. "every
// 5 minutes, on average over an hour" (Section 5.3).
class SlackTicker {
 public:
  SlackTicker(BatchingTimerService* service, SimDuration period, SimDuration slack,
              std::function<void()> fn);
  ~SlackTicker() { Stop(); }

  void Start();
  void Stop();

  uint64_t ticks() const { return ticks_; }
  // Long-run average period so far (0 before the second tick).
  SimDuration average_period() const;

 private:
  void ArmNext();

  BatchingTimerService* service_;
  SimDuration period_;
  SimDuration slack_;
  std::function<void()> fn_;
  bool running_ = false;
  SimTime epoch_ = 0;
  SimTime last_tick_ = 0;
  uint64_t ticks_ = 0;
  ServiceTimerId current_ = kInvalidServiceTimer;
};

}  // namespace tempo

#endif  // TEMPO_SRC_ADAPTIVE_SLACK_H_

// Use-case-specific timer interfaces (Section 5.4).
//
// The study found the one generic set/cancel interface serving at least
// five distinct purposes. These classes give each purpose its own
// abstraction, which lets the implementation optimise per use case:
//
//   PeriodicTicker — "every period t, invoke f" (drift-free; a precision
//                    parameter lets imprecise tickers batch);
//   Watchdog       — "if this code path has not executed within t, invoke
//                    f" (Kick() defers);
//   ScopedTimeout  — "if this procedure has not returned in t, invoke e"
//                    (the Win32 auto-object idiom: constructor arms,
//                    destructor cancels);
//   DelayTimer     — "after time t, invoke e" (the bare legacy case);
//   DeferredAction — "run f once this activity has been idle for t"
//                    (Vista's lazy registry-handle close);
//   TimeoutStack   — nested-timeout tracking: an inner timeout that cannot
//                    fire before an enclosing one is elided (Section 5.4's
//                    dependency-aware optimisation).

#ifndef TEMPO_SRC_ADAPTIVE_INTERFACES_H_
#define TEMPO_SRC_ADAPTIVE_INTERFACES_H_

#include <functional>
#include <vector>

#include "src/adaptive/timer_service.h"

namespace tempo {

// Drift-free periodic ticker.
class PeriodicTicker {
 public:
  // `slack`: permissible lateness. A ticker with non-zero slack maintains
  // the average frequency while tolerating local variation (Section 5.4),
  // allowing the service to batch it with other wakeups.
  PeriodicTicker(TimerSurface* service, SimDuration period, std::function<void()> fn,
                 SimDuration slack = 0);
  ~PeriodicTicker() { Stop(); }
  PeriodicTicker(const PeriodicTicker&) = delete;
  PeriodicTicker& operator=(const PeriodicTicker&) = delete;

  void Start();
  void Stop();

  bool running() const { return running_; }
  uint64_t ticks() const { return ticks_; }
  // Max drift of any tick from its nominal time (for precision tests).
  SimDuration max_drift() const { return max_drift_; }

 private:
  void ArmNext();

  TimerSurface* service_;
  SimDuration period_;
  SimDuration slack_;
  std::function<void()> fn_;
  bool running_ = false;
  SimTime epoch_ = 0;
  uint64_t ticks_ = 0;
  SimDuration max_drift_ = 0;
  ServiceTimerId current_ = kInvalidServiceTimer;
};

// Deadman switch.
class Watchdog {
 public:
  Watchdog(TimerSurface* service, SimDuration timeout, std::function<void()> on_expire);
  ~Watchdog() { Stop(); }
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

  // Arms (or re-arms) the full timeout.
  void Kick();
  void Stop();

  bool armed() const { return current_ != kInvalidServiceTimer; }
  uint64_t kicks() const { return kicks_; }
  uint64_t expiries() const { return expiries_; }

 private:
  TimerSurface* service_;
  SimDuration timeout_;
  std::function<void()> on_expire_;
  ServiceTimerId current_ = kInvalidServiceTimer;
  uint64_t kicks_ = 0;
  uint64_t expiries_ = 0;
};

// RAII timeout covering a scope (arm on construction, cancel on
// destruction) — the idiom Outlook wraps around UI upcalls (Section 2.2.1).
class ScopedTimeout {
 public:
  ScopedTimeout(TimerSurface* service, SimDuration timeout, std::function<void()> on_timeout);
  ~ScopedTimeout();
  ScopedTimeout(const ScopedTimeout&) = delete;
  ScopedTimeout& operator=(const ScopedTimeout&) = delete;

  bool expired() const { return expired_; }

 private:
  TimerSurface* service_;
  ServiceTimerId current_ = kInvalidServiceTimer;
  bool expired_ = false;
};

// One-shot delay.
class DelayTimer {
 public:
  explicit DelayTimer(TimerSurface* service) : service_(service) {}

  // Schedules fn after `delay`; returns a cancelable id.
  ServiceTimerId After(SimDuration delay, std::function<void()> fn) {
    return service_->Arm(delay, std::move(fn));
  }
  bool Cancel(ServiceTimerId id) { return service_->Cancel(id); }

 private:
  TimerSurface* service_;
};

// Runs an action once its subject has been idle for `idle_period`. Touch()
// marks activity. Internally a deferrable watchdog — the Vista "deferred
// operation" pattern, but with the deferral made cheap: Touch() only
// records a timestamp, and the timer re-arms itself lazily on expiry,
// instead of re-setting a kernel timer on every activity burst.
class DeferredAction {
 public:
  DeferredAction(TimerSurface* service, SimDuration idle_period, std::function<void()> action);
  ~DeferredAction() { Cancel(); }
  DeferredAction(const DeferredAction&) = delete;
  DeferredAction& operator=(const DeferredAction&) = delete;

  // Marks activity; the action is postponed until idle_period of quiet.
  void Touch();
  void Cancel();

  uint64_t fired() const { return fired_; }
  // Kernel-timer arms actually performed (compare with Touch() count).
  uint64_t arms() const { return arms_; }

 private:
  void ArmFor(SimDuration d);
  void OnTimer();

  TimerSurface* service_;
  SimDuration idle_period_;
  std::function<void()> action_;
  ServiceTimerId current_ = kInvalidServiceTimer;
  SimTime last_touch_ = 0;
  bool active_ = false;
  uint64_t fired_ = 0;
  uint64_t arms_ = 0;
};

// Per-thread nested-timeout tracker: pushing a timeout that could only fire
// after an already-pending enclosing timeout is pointless, so it is elided
// (never armed). Used by layered code where each layer defensively wraps
// calls in its own timeout.
class TimeoutStack {
 public:
  explicit TimeoutStack(TimerSurface* service) : service_(service) {}

  // Enters a scope with `timeout`; on_timeout fires only if this is the
  // binding (innermost-effective) timeout. Returns a token for Pop.
  uint64_t Push(SimDuration timeout, std::function<void()> on_timeout);

  // Leaves the scope (cancels if armed).
  void Pop(uint64_t token);

  uint64_t armed_count() const { return armed_; }
  uint64_t elided_count() const { return elided_; }

 private:
  struct Frame {
    uint64_t token;
    SimTime deadline;
    ServiceTimerId timer;  // kInvalidServiceTimer if elided
  };
  TimerSurface* service_;
  std::vector<Frame> frames_;
  uint64_t next_token_ = 1;
  uint64_t armed_ = 0;
  uint64_t elided_ = 0;
};

}  // namespace tempo

#endif  // TEMPO_SRC_ADAPTIVE_INTERFACES_H_

#include "src/adaptive/interfaces.h"

#include <algorithm>
#include <utility>

namespace tempo {

// --- PeriodicTicker ---

PeriodicTicker::PeriodicTicker(TimerSurface* service, SimDuration period,
                               std::function<void()> fn, SimDuration slack)
    : service_(service), period_(period), slack_(slack), fn_(std::move(fn)) {}

void PeriodicTicker::Start() {
  if (running_) {
    return;
  }
  running_ = true;
  epoch_ = service_->Now();
  ticks_ = 0;
  ArmNext();
}

void PeriodicTicker::Stop() {
  if (!running_) {
    return;
  }
  running_ = false;
  if (current_ != kInvalidServiceTimer) {
    service_->Cancel(current_);
    current_ = kInvalidServiceTimer;
  }
}

void PeriodicTicker::ArmNext() {
  // Drift-free: the k-th tick is scheduled off the epoch, not off "now", so
  // callback latency does not accumulate — one of the things clients of the
  // raw interface must hand-roll (Section 5.4).
  const SimTime nominal = epoch_ + static_cast<SimDuration>(ticks_ + 1) * period_;
  const SimDuration delay = std::max<SimDuration>(0, nominal - service_->Now());
  current_ = service_->Arm(delay + slack_ / 2, [this, nominal] {
    current_ = kInvalidServiceTimer;
    if (!running_) {
      return;
    }
    ++ticks_;
    max_drift_ = std::max(max_drift_, service_->Now() - nominal);
    if (fn_) {
      fn_();
    }
    if (running_) {
      ArmNext();
    }
  });
}

// --- Watchdog ---

Watchdog::Watchdog(TimerSurface* service, SimDuration timeout, std::function<void()> on_expire)
    : service_(service), timeout_(timeout), on_expire_(std::move(on_expire)) {}

void Watchdog::Kick() {
  ++kicks_;
  if (current_ != kInvalidServiceTimer) {
    service_->Cancel(current_);
  }
  current_ = service_->Arm(timeout_, [this] {
    current_ = kInvalidServiceTimer;
    ++expiries_;
    if (on_expire_) {
      on_expire_();
    }
  });
}

void Watchdog::Stop() {
  if (current_ != kInvalidServiceTimer) {
    service_->Cancel(current_);
    current_ = kInvalidServiceTimer;
  }
}

// --- ScopedTimeout ---

ScopedTimeout::ScopedTimeout(TimerSurface* service, SimDuration timeout,
                             std::function<void()> on_timeout)
    : service_(service) {
  current_ = service_->Arm(timeout, [this, cb = std::move(on_timeout)] {
    current_ = kInvalidServiceTimer;
    expired_ = true;
    if (cb) {
      cb();
    }
  });
}

ScopedTimeout::~ScopedTimeout() {
  if (current_ != kInvalidServiceTimer) {
    service_->Cancel(current_);
    current_ = kInvalidServiceTimer;
  }
}

// --- DeferredAction ---

DeferredAction::DeferredAction(TimerSurface* service, SimDuration idle_period,
                               std::function<void()> action)
    : service_(service), idle_period_(idle_period), action_(std::move(action)) {}

void DeferredAction::Touch() {
  last_touch_ = service_->Now();
  if (!active_) {
    active_ = true;
    ArmFor(idle_period_);
  }
  // If a timer is already pending we do nothing: OnTimer() re-arms for the
  // remaining idle time. This turns N touches into O(elapsed/idle_period)
  // timer operations instead of N.
}

void DeferredAction::ArmFor(SimDuration d) {
  ++arms_;
  current_ = service_->Arm(d, [this] {
    current_ = kInvalidServiceTimer;
    OnTimer();
  });
}

void DeferredAction::OnTimer() {
  const SimTime idle_since = last_touch_ + idle_period_;
  const SimTime now = service_->Now();
  if (now < idle_since) {
    ArmFor(idle_since - now);  // there was activity: keep waiting
    return;
  }
  active_ = false;
  ++fired_;
  if (action_) {
    action_();
  }
}

void DeferredAction::Cancel() {
  if (current_ != kInvalidServiceTimer) {
    service_->Cancel(current_);
    current_ = kInvalidServiceTimer;
  }
  active_ = false;
}

// --- TimeoutStack ---

uint64_t TimeoutStack::Push(SimDuration timeout, std::function<void()> on_timeout) {
  const uint64_t token = next_token_++;
  const SimTime deadline = service_->Now() + timeout;
  // If an enclosing timeout fires earlier (or at the same time), this inner
  // timeout can never be the one that matters: elide it.
  bool shadowed = false;
  for (const Frame& frame : frames_) {
    if (frame.timer != kInvalidServiceTimer && frame.deadline <= deadline) {
      shadowed = true;
      break;
    }
  }
  Frame frame;
  frame.token = token;
  frame.deadline = deadline;
  if (shadowed) {
    frame.timer = kInvalidServiceTimer;
    ++elided_;
  } else {
    frame.timer = service_->Arm(timeout, std::move(on_timeout));
    ++armed_;
  }
  frames_.push_back(frame);
  return token;
}

void TimeoutStack::Pop(uint64_t token) {
  for (auto it = frames_.rbegin(); it != frames_.rend(); ++it) {
    if (it->token == token) {
      if (it->timer != kInvalidServiceTimer) {
        service_->Cancel(it->timer);
      }
      frames_.erase(std::next(it).base());
      return;
    }
  }
}

}  // namespace tempo

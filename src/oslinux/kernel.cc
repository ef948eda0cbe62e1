#include "src/oslinux/kernel.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace tempo {

LinuxKernel::LinuxKernel(Simulator* sim, TraceSink* sink)
    : LinuxKernel(sim, sink, Options{}) {}

LinuxKernel::LinuxKernel(Simulator* sim, TraceSink* sink, Options options)
    : sim_(sim), sink_(sink), options_(options) {}

void LinuxKernel::Boot() {
  assert(!booted_);
  booted_ = true;
  jiffies_ = TimeToJiffies(sim_->Now());
  ScheduleNextTick();
}

Jiffies LinuxKernel::jiffies() const { return TimeToJiffies(sim_->Now()); }

LinuxTimer* LinuxKernel::InitTimer(const std::string& callsite, std::function<void()> fn,
                                   Pid pid, Tid tid, bool deferrable, CallsiteId parent) {
  auto timer = std::make_unique<LinuxTimer>();
  timer->id = next_timer_id_++;
  timer->callsite = callsites_.Intern(callsite, parent);
  timer->pid = pid;
  timer->tid = tid;
  timer->deferrable = deferrable;
  timer->user = pid != kKernelPid;
  timer->function = std::move(fn);
  LinuxTimer* raw = timer.get();
  timers_.push_back(std::move(timer));
  Log(TimerOp::kInit, *raw, 0, 0, 0);
  return raw;
}

void LinuxKernel::Log(TimerOp op, const LinuxTimer& t, SimDuration timeout, SimTime expiry,
                      uint16_t extra_flags) {
  TraceRecord r;
  r.timestamp = sim_->Now();
  r.timer = t.id;
  r.timeout = timeout;
  r.expiry = expiry;
  r.callsite = t.callsite;
  r.stack = callsites_.ChainStack(t.callsite);
  r.pid = t.pid;
  r.tid = t.tid;
  r.op = op;
  r.flags = static_cast<uint16_t>(extra_flags | kFlagJiffyWheel);
  if (t.user) {
    r.flags |= kFlagUser;
  }
  if (t.deferrable) {
    r.flags |= kFlagDeferrable;
  }
  sink_->Log(r);
}

void LinuxKernel::Arm(LinuxTimer* timer, Jiffies expires, SimDuration observed_timeout,
                      uint16_t extra_flags) {
  const SimTime now = sim_->Now();
  const Jiffies now_jiffies = jiffies();
  if (expires <= now_jiffies) {
    expires = now_jiffies + 1;  // the wheel never fires in the past
  }
  if (timer->pending) {
    // mod_timer on a pending timer re-arms in place: no cancel record.
    wheel_.Cancel(timer->wheel_handle);
    ForgetWakeup(*timer);
  }
  timer->pending = true;
  timer->expires = expires;
  timer->set_time = now;
  timer->last_timeout = observed_timeout;
  const SimTime expiry_time = JiffiesToTime(expires);
  timer->wheel_handle = wheel_.Schedule(expiry_time, [this, timer](TimerHandle) {
    // __run_timers: detach, log the expiry, run the callback in bottom-half
    // context (the callback may re-arm this or any other timer).
    timer->pending = false;
    ForgetWakeup(*timer);
    Log(TimerOp::kExpire, *timer, timer->last_timeout, JiffiesToTime(timer->expires), 0);
    if (timer->function) {
      timer->function();
    }
  });
  if (options_.dynticks && !timer->deferrable) {
    pending_wakeups_.insert(expires);
  }
  Log(TimerOp::kSet, *timer, observed_timeout, expiry_time, extra_flags);
  if (!timer->deferrable) {
    // A deferrable timer must not wake an idle CPU: it never reprograms a
    // parked dynticks tick (the 2.6.22 semantics).
    ReprogramTickIfNeeded(expires);
  }
}

void LinuxKernel::ForgetWakeup(const LinuxTimer& timer) {
  if (!options_.dynticks || timer.deferrable) {
    return;
  }
  auto it = pending_wakeups_.find(timer.expires);
  if (it != pending_wakeups_.end()) {
    pending_wakeups_.erase(it);
  }
}

void LinuxKernel::ModTimer(LinuxTimer* timer, Jiffies expires, bool rounded) {
  const SimTime now = sim_->Now();
  const Jiffies now_jiffies = jiffies();
  const Jiffies effective = expires <= now_jiffies ? now_jiffies + 1 : expires;
  const SimDuration observed = JiffiesToTime(effective) - now;
  Arm(timer, expires, observed, rounded ? kFlagRounded : uint16_t{0});
}

void LinuxKernel::ModTimerRelative(LinuxTimer* timer, SimDuration timeout, bool round) {
  const Jiffies now_jiffies = jiffies();
  Jiffies expires = now_jiffies + DurationToJiffies(timeout);
  if (round) {
    expires = RoundJiffies(expires);
  }
  const Jiffies effective = expires <= now_jiffies ? now_jiffies + 1 : expires;
  // The caller computed the absolute expiry "some time ago": at the
  // __mod_timer tracepoint the observed relative value exhibits up to ~2 ms
  // of conversion jitter (Section 3.1). The expiry itself stays exact.
  SimDuration observed = JiffiesToTime(effective) - sim_->Now();
  if (options_.max_set_jitter > 0 && sim_->rng().Bernoulli(options_.jitter_probability)) {
    const SimDuration jitter = static_cast<SimDuration>(
        sim_->rng().Uniform(0, static_cast<double>(options_.max_set_jitter)));
    observed = std::max<SimDuration>(0, observed - jitter);
  }
  Arm(timer, expires, observed, round ? kFlagRounded : uint16_t{0});
}

void LinuxKernel::ModTimerUser(LinuxTimer* timer, SimDuration timeout) {
  // Timeouts entering via system calls are relative and are logged exactly
  // as supplied, with no conversion jitter (Section 3.1).
  timer->user = true;
  const Jiffies expires = jiffies() + DurationToJiffies(timeout);
  Arm(timer, expires, timeout, 0);
}

bool LinuxKernel::DelTimer(LinuxTimer* timer) {
  if (!timer->pending) {
    ++noop_deletes_;  // deleting an already-deleted timer: common in traces
    return false;
  }
  wheel_.Cancel(timer->wheel_handle);
  ForgetWakeup(*timer);
  timer->pending = false;
  Log(TimerOp::kCancel, *timer, timer->last_timeout, JiffiesToTime(timer->expires), 0);
  return true;
}

LinuxHrTimer* LinuxKernel::InitHrTimer(const std::string& callsite, std::function<void()> fn,
                                       Pid pid, Tid tid) {
  auto timer = std::make_unique<LinuxHrTimer>();
  timer->id = next_timer_id_++;
  timer->callsite = callsites_.Intern(callsite);
  timer->pid = pid;
  timer->tid = tid;
  timer->function = std::move(fn);
  LinuxHrTimer* raw = timer.get();
  hr_timers_.push_back(std::move(timer));
  LogHr(TimerOp::kInit, *raw, 0, 0);
  return raw;
}

void LinuxKernel::LogHr(TimerOp op, const LinuxHrTimer& t, SimDuration timeout, SimTime expiry) {
  TraceRecord r;
  r.timestamp = sim_->Now();
  r.timer = t.id;
  r.timeout = timeout;
  r.expiry = expiry;
  r.callsite = t.callsite;
  r.stack = callsites_.ChainStack(t.callsite);
  r.pid = t.pid;
  r.tid = t.tid;
  r.op = op;
  r.flags = kFlagHighRes;
  if (t.pid != kKernelPid) {
    r.flags |= kFlagUser;
  }
  sink_->Log(r);
}

void LinuxKernel::StartHrTimer(LinuxHrTimer* timer, SimDuration timeout) {
  const SimTime now = sim_->Now();
  if (timer->pending) {
    hr_tree_.Cancel(timer->tree_handle);
  }
  timer->pending = true;
  timer->expiry = now + std::max<SimDuration>(timeout, 0);
  timer->set_time = now;
  timer->last_timeout = timeout;
  timer->tree_handle = hr_tree_.Schedule(timer->expiry, [this, timer](TimerHandle) {
    timer->pending = false;
    LogHr(TimerOp::kExpire, *timer, timer->last_timeout, timer->expiry);
    if (timer->function) {
      timer->function();
    }
  });
  LogHr(TimerOp::kSet, *timer, timeout, timer->expiry);
  ReprogramHrEvent();
}

bool LinuxKernel::CancelHrTimer(LinuxHrTimer* timer) {
  if (!timer->pending) {
    return false;
  }
  hr_tree_.Cancel(timer->tree_handle);
  timer->pending = false;
  LogHr(TimerOp::kCancel, *timer, timer->last_timeout, timer->expiry);
  ReprogramHrEvent();
  return true;
}

void LinuxKernel::OnHrInterrupt() {
  const SimTime now = sim_->Now();
  sim_->cpu().OnInterrupt(now, /*timer=*/true);
  hr_event_ = kInvalidEventId;
  hr_event_time_ = kNeverTime;
  hr_tree_.Advance(now);
  ReprogramHrEvent();
  sim_->cpu().EnterIdle(now);
}

void LinuxKernel::ReprogramHrEvent() {
  const SimTime next = hr_tree_.NextExpiry();
  if (next == hr_event_time_) {
    return;
  }
  if (hr_event_ != kInvalidEventId) {
    sim_->Cancel(hr_event_);
    hr_event_ = kInvalidEventId;
    hr_event_time_ = kNeverTime;
  }
  if (next != kNeverTime) {
    hr_event_ = sim_->ScheduleAt(next, [this] { OnHrInterrupt(); });
    hr_event_time_ = next;
  }
}

void LinuxKernel::OnTick() {
  const SimTime now = sim_->Now();
  sim_->cpu().OnInterrupt(now, /*timer=*/true);
  const Jiffies previous = jiffies_;
  jiffies_ = TimeToJiffies(now);
  if (jiffies_ > previous + 1) {
    ticks_skipped_ += jiffies_ - previous - 1;  // dynticks savings
  }
  ++ticks_serviced_;
  tick_event_ = kInvalidEventId;
  // Callbacks run by __run_timers re-arm timers; ScheduleNextTick below
  // accounts for them all at once, so per-arm reprogramming is suppressed
  // (it would schedule duplicate tick interrupts).
  in_tick_ = true;
  wheel_.Advance(now);
  in_tick_ = false;
  ScheduleNextTick();
  sim_->cpu().EnterIdle(now);
}

void LinuxKernel::ScheduleNextTick() {
  Jiffies next = jiffies_ + 1;
  if (options_.dynticks) {
    if (pending_wakeups_.empty()) {
      // Fully idle: park the tick entirely; a later ModTimer reprograms it.
      tick_scheduled_for_ = 0;
      return;
    }
    const Jiffies needed = *pending_wakeups_.begin();
    if (needed > next) {
      next = needed;  // skipped ticks are accounted when the wakeup lands
    }
  }
  tick_scheduled_for_ = next;
  tick_event_ = sim_->ScheduleAt(JiffiesToTime(next), [this] { OnTick(); });
}

void LinuxKernel::ReprogramTickIfNeeded(Jiffies needed) {
  if (!options_.dynticks || !booted_ || in_tick_) {
    return;
  }
  if (tick_event_ != kInvalidEventId && tick_scheduled_for_ <= needed) {
    return;
  }
  if (tick_event_ != kInvalidEventId) {
    sim_->Cancel(tick_event_);
    tick_event_ = kInvalidEventId;
  }
  const Jiffies next = std::max(jiffies() + 1, needed);
  tick_scheduled_for_ = next;
  tick_event_ = sim_->ScheduleAt(JiffiesToTime(next), [this] { OnTick(); });
}

}  // namespace tempo

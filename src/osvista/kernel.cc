#include "src/osvista/kernel.h"

#include <algorithm>
#include <cassert>
#include <map>
#include <utility>

namespace tempo {

VistaKernel::VistaKernel(Simulator* sim, TraceSink* sink)
    : VistaKernel(sim, sink, Options{}) {}

VistaKernel::VistaKernel(Simulator* sim, TraceSink* sink, Options options)
    : sim_(sim), sink_(sink), options_(options) {}

void VistaKernel::Boot() {
  assert(!booted_);
  booted_ = true;
  ScheduleNextTick();
}

KTimer* VistaKernel::AllocateTimer(const std::string& callsite, Pid pid, Tid tid,
                                   std::function<void()> dpc, bool dynamic,
                                   CallsiteId parent) {
  KTimer* raw = nullptr;
  if (dynamic && !free_timers_.empty()) {
    // Recycled allocation: same storage, and therefore the SAME trace
    // identity — the address aliasing that makes Vista timer identity
    // useless for correlation (Section 3.3). kFlagDynamicAlloc tells the
    // analysis to cluster by call-site instead.
    auto timer = std::move(free_timers_.back());
    free_timers_.pop_back();
    raw = timer.get();
    timers_.push_back(std::move(timer));
  } else {
    timers_.push_back(std::make_unique<KTimer>());
    raw = timers_.back().get();
    raw->id = next_timer_id_++;  // identity == storage address
  }
  raw->callsite = callsites_.Intern(callsite, parent);
  raw->stack = callsites_.ChainStack(raw->callsite);
  raw->pid = pid;
  raw->tid = tid;
  raw->dynamic = dynamic;
  raw->dpc = std::move(dpc);
  raw->pending = false;
  return raw;
}

void VistaKernel::Log(TimerOp op, const KTimer& t, SimDuration timeout, SimTime expiry,
                      uint16_t extra_flags) {
  TraceRecord r;
  r.timestamp = sim_->Now();
  r.timer = t.id;
  r.timeout = timeout;
  r.expiry = expiry;
  r.callsite = t.callsite;
  r.stack = t.stack;
  r.pid = t.pid;
  r.tid = t.tid;
  r.op = op;
  r.flags = extra_flags;
  if (t.pid != kKernelPid) {
    r.flags |= kFlagUser;
  }
  if (t.dynamic) {
    r.flags |= kFlagDynamicAlloc;
  }
  sink_->Log(r);
}

void VistaKernel::KeSetTimer(KTimer* timer, SimDuration timeout) {
  const SimTime now = sim_->Now();
  if (timeout < 0) {
    timeout = 0;
  }
  if (timer->pending) {
    table_.Cancel(timer->table_handle);  // implicit re-arm, no cancel record
  }
  timer->pending = true;
  timer->due = now + timeout;
  timer->set_time = now;
  timer->last_timeout = timeout;
  timer->table_handle = table_.Schedule(timer->due, [this, timer](TimerHandle) {
    // Fired from the clock-interrupt DPC that processes the timer table.
    timer->pending = false;
    Log(TimerOp::kExpire, *timer, timer->last_timeout, timer->due, 0);
    if (timer->dpc) {
      timer->dpc();
    }
  });
  Log(TimerOp::kSet, *timer, timeout, timer->due, 0);
  MaybeReprogramTick(timer->due);
}

bool VistaKernel::KeCancelTimer(KTimer* timer) {
  if (!timer->pending) {
    return false;
  }
  table_.Cancel(timer->table_handle);
  timer->pending = false;
  Log(TimerOp::kCancel, *timer, timer->last_timeout, timer->due, 0);
  return true;
}

void VistaKernel::FreeTimer(KTimer* timer) {
  if (timer->pending) {
    table_.Cancel(timer->table_handle);
    timer->pending = false;
  }
  timer->dpc = nullptr;
  // Move ownership to the free list. Linear scan from the back is fine:
  // timers are almost always freed shortly after allocation.
  for (auto it = timers_.rbegin(); it != timers_.rend(); ++it) {
    if (it->get() == timer) {
      free_timers_.push_back(std::move(*it));
      timers_.erase(std::next(it).base());
      return;
    }
  }
}

VistaKernel::Wait* VistaKernel::BlockThread(Pid pid, Tid tid, const std::string& callsite,
                                            SimDuration timeout,
                                            std::function<void(bool satisfied)> on_wake) {
  // Reuse completed wait slots; each thread blocks on at most one wait.
  Wait* wait = nullptr;
  for (auto& w : waits_) {
    if (w->done_) {
      wait = w.get();
      break;
    }
  }
  if (wait == nullptr) {
    waits_.push_back(std::unique_ptr<Wait>(new Wait()));
    wait = waits_.back().get();
  }
  wait->kernel_ = this;
  wait->pid_ = pid;
  wait->tid_ = tid;
  wait->done_ = false;
  wait->block_start_ = sim_->Now();
  wait->timeout_ = timeout;
  wait->callsite_ = callsites_.Intern(callsite);
  wait->on_wake_ = std::move(on_wake);
  wait->has_timeout_ = timeout != kNeverTime;

  // The dedicated per-thread wait KTIMER: stable identity, fast-path
  // insertion into the timer table (bypasses KeSetTimer — we log kBlock
  // instead of kSet, as the paper's instrumentation does).
  KTimer*& slot = wait_timers_[std::make_pair(pid, tid)];
  if (slot == nullptr) {
    timers_.push_back(std::make_unique<KTimer>());
    slot = timers_.back().get();
    slot->id = next_timer_id_++;
    slot->pid = pid;
    slot->tid = tid;
    slot->dynamic = false;
  }
  wait->timer_ = slot;
  wait->timer_->callsite = wait->callsite_;
  wait->timer_->stack = callsites_.ChainStack(wait->callsite_);

  TraceRecord r;
  r.timestamp = wait->block_start_;
  r.timer = wait->timer_->id;
  r.timeout = wait->has_timeout_ ? timeout : 0;
  r.expiry = wait->has_timeout_ ? wait->block_start_ + timeout : 0;
  r.callsite = wait->callsite_;
  r.stack = wait->timer_->stack;
  r.pid = pid;
  r.tid = tid;
  r.op = TimerOp::kBlock;
  r.flags = pid != kKernelPid ? kFlagUser : uint16_t{0};
  sink_->Log(r);

  if (wait->has_timeout_) {
    KTimer* kt = wait->timer_;
    kt->pending = true;
    kt->due = wait->block_start_ + timeout;
    kt->set_time = wait->block_start_;
    kt->last_timeout = timeout;
    kt->table_handle = table_.Schedule(kt->due, [this, wait](TimerHandle) {
      wait->timer_->pending = false;
      CompleteWait(wait, /*satisfied=*/false);
    });
    MaybeReprogramTick(kt->due);
  }
  return wait;
}

bool VistaKernel::Signal(Wait* wait) {
  if (wait == nullptr || wait->done_) {
    return false;
  }
  if (wait->has_timeout_ && wait->timer_->pending) {
    table_.Cancel(wait->timer_->table_handle);
    wait->timer_->pending = false;
  }
  CompleteWait(wait, /*satisfied=*/true);
  return true;
}

void VistaKernel::CompleteWait(Wait* wait, bool satisfied) {
  wait->done_ = true;
  TraceRecord r;
  r.timestamp = sim_->Now();
  r.timer = wait->timer_->id;
  r.timeout = wait->has_timeout_ ? wait->timeout_ : 0;
  r.expiry = wait->block_start_;  // unblock records carry the block start so
                                  // analysis recovers the wait duration
  r.callsite = wait->callsite_;
  r.stack = wait->timer_->stack;
  r.pid = wait->pid_;
  r.tid = wait->tid_;
  r.op = TimerOp::kUnblock;
  r.flags = wait->pid_ != kKernelPid ? kFlagUser : uint16_t{0};
  if (satisfied) {
    r.flags |= kFlagWaitSatisfied;
  }
  sink_->Log(r);
  if (wait->on_wake_) {
    auto cb = std::move(wait->on_wake_);
    wait->on_wake_ = nullptr;
    cb(satisfied);
  }
}

SimDuration VistaKernel::effective_tick() const {
  SimDuration tick = options_.clock_tick;
  if (!resolution_requests_.empty()) {
    tick = std::min(tick, *resolution_requests_.begin());
  }
  return std::max<SimDuration>(tick, kMillisecond);  // 1 ms floor, as on NT
}

void VistaKernel::BeginTimerResolution(SimDuration period) {
  resolution_requests_.insert(period);
  // Take effect immediately: pull the next interrupt onto the finer grid.
  if (booted_ && tick_event_ != kInvalidEventId) {
    sim_->Cancel(tick_event_);
    tick_event_ = kInvalidEventId;
    ScheduleNextTick();
  }
}

void VistaKernel::EndTimerResolution(SimDuration period) {
  auto it = resolution_requests_.find(period);
  if (it != resolution_requests_.end()) {
    resolution_requests_.erase(it);
  }
}

void VistaKernel::OnClockInterrupt() {
  const SimTime now = sim_->Now();
  sim_->cpu().OnInterrupt(now, /*timer=*/true);
  ++clock_interrupts_;
  tick_event_ = kInvalidEventId;
  table_.Advance(now);
  ScheduleNextTick();
  sim_->cpu().EnterIdle(now);
}

void VistaKernel::ScheduleNextTick() {
  const SimDuration tick = effective_tick();
  SimTime next = sim_->Now() + tick;
  if (options_.coalesce_ticks) {
    const SimTime due = table_.NextExpiry();
    if (due == kNeverTime) {
      // Nothing pending: take one tick 16x out to keep the clock alive.
      next = sim_->Now() + 16 * tick;
      ticks_coalesced_ += 15;
    } else if (due > next) {
      // Skip to the tick at or after the next due time.
      const uint64_t skip =
          static_cast<uint64_t>((due - sim_->Now() + tick - 1) / tick);
      ticks_coalesced_ += skip > 0 ? skip - 1 : 0;
      next = sim_->Now() + static_cast<SimDuration>(skip) * tick;
    }
  }
  tick_scheduled_for_ = next;
  tick_event_ = sim_->ScheduleAt(next, [this] { OnClockInterrupt(); });
}

void VistaKernel::MaybeReprogramTick(SimTime due) {
  if (!options_.coalesce_ticks || !booted_ || tick_event_ == kInvalidEventId) {
    return;
  }
  if (due >= tick_scheduled_for_) {
    return;
  }
  sim_->Cancel(tick_event_);
  const SimTime earliest = sim_->Now() + effective_tick();
  tick_scheduled_for_ = std::max(earliest, due);
  tick_event_ = sim_->ScheduleAt(tick_scheduled_for_, [this] { OnClockInterrupt(); });
}

}  // namespace tempo

// Model of the Linux 2.6.23 timer subsystem.
//
// Implements the interface the paper instruments (Section 2.1):
//   init_timer / __mod_timer / del_timer driving a cascading timer wheel at
//   HZ=250, __run_timers called from the periodic tick, plus the 2.6.16+
//   high-resolution timer facility, round_jiffies (2.6.20), deferrable
//   timers (2.6.22) and dynticks (2.6.21).
//
// Every operation is logged to a TraceSink exactly where the paper put its
// tracepoints: arming is observed inside __mod_timer with the *absolute*
// jiffy expiry (so kernel-side relative timeouts exhibit up to ~2 ms of
// conversion jitter, Section 3.1), cancellation in del_timer, and expiry in
// __run_timers. User-space timeouts are logged at the syscall boundary with
// the exact relative value (no jitter) — see syscalls.h.

#ifndef TEMPO_SRC_OSLINUX_KERNEL_H_
#define TEMPO_SRC_OSLINUX_KERNEL_H_

#include <deque>
#include <functional>
#include <memory>
#include <set>
#include <string>

#include "src/oslinux/jiffies.h"
#include "src/sim/simulator.h"
#include "src/timer/hierarchical_wheel.h"
#include "src/timer/tree_queue.h"
#include "src/trace/buffer.h"
#include "src/trace/callsite.h"

namespace tempo {

// A kernel timer structure (struct timer_list). Statically allocated by its
// owning subsystem and reused for repeated timeouts, which is what gives
// Linux timers their stable identity in traces (Section 4.1.1).
struct LinuxTimer {
  TimerId id = kInvalidTimerId;
  CallsiteId callsite = kUnknownCallsite;
  Pid pid = kKernelPid;
  Tid tid = 0;
  bool deferrable = false;
  bool user = false;               // armed on behalf of user space (syscall)
  std::function<void()> function;  // expiry callback (bottom-half context)

  // Wheel state (owned by LinuxKernel).
  bool pending = false;
  Jiffies expires = 0;             // absolute jiffies
  SimTime set_time = 0;            // when last armed
  SimDuration last_timeout = 0;    // relative timeout as last observed
  TimerHandle wheel_handle = kInvalidTimerHandle;
};

// A high-resolution timer (struct hrtimer), kept in a time-ordered tree
// with nanosecond resolution.
struct LinuxHrTimer {
  TimerId id = kInvalidTimerId;
  CallsiteId callsite = kUnknownCallsite;
  Pid pid = kKernelPid;
  Tid tid = 0;
  std::function<void()> function;

  bool pending = false;
  SimTime expiry = 0;
  SimTime set_time = 0;
  SimDuration last_timeout = 0;
  TimerHandle tree_handle = kInvalidTimerHandle;
};

// The Linux kernel timer subsystem model.
class LinuxKernel {
 public:
  struct Options {
    // Enable the 2.6.21 dynticks feature: the periodic tick is suppressed
    // while idle and the CPU sleeps until the next non-deferrable timer.
    bool dynticks = false;
    // Maximum conversion jitter applied to *observed* kernel-side relative
    // timeouts (the expiry itself is exact). The paper measured up to 2 ms.
    SimDuration max_set_jitter = 3 * kMillisecond / 2;
    // Fraction of kernel-side sets that see noticeable jitter.
    double jitter_probability = 0.35;
  };

  // `sink` receives all trace records; it must outlive the kernel. Clock
  // interrupts, timer wheels and RNG draws all run on `sim`.
  LinuxKernel(Simulator* sim, TraceSink* sink);
  LinuxKernel(Simulator* sim, TraceSink* sink, Options options);
  LinuxKernel(const LinuxKernel&) = delete;
  LinuxKernel& operator=(const LinuxKernel&) = delete;

  // Starts the periodic tick. Must be called once before running.
  void Boot();

  Simulator& sim() { return *sim_; }
  CallsiteRegistry& callsites() { return callsites_; }
  // Current jiffy count. Computed from virtual time so it never goes stale
  // while the periodic tick is suppressed (dynticks).
  Jiffies jiffies() const;

  // --- Standard timer interface (timer wheel) ---

  // init_timer/setup_timer: allocates and initialises a timer structure
  // owned by the kernel (subsystems keep the raw pointer). Logs kInit.
  LinuxTimer* InitTimer(const std::string& callsite, std::function<void()> fn,
                        Pid pid = kKernelPid, Tid tid = 0, bool deferrable = false,
                        CallsiteId parent = kUnknownCallsite);

  // __mod_timer with an absolute jiffy expiry (the native interface).
  // Re-arming a pending timer reschedules it without a cancel record.
  void ModTimer(LinuxTimer* timer, Jiffies expires, bool rounded = false);

  // Convenience used by kernel subsystems: computes expires = jiffies +
  // timeout, applying conversion jitter to the *observed* timeout value.
  void ModTimerRelative(LinuxTimer* timer, SimDuration timeout, bool round = false);

  // Arm on behalf of a user-space syscall: relative value is logged exactly
  // (measured at the system call), flagged kFlagUser.
  void ModTimerUser(LinuxTimer* timer, SimDuration timeout);

  // del_timer / del_timer_sync. Returns true if the timer was pending
  // (logs kCancel); deleting a non-pending timer is a harmless no-op, which
  // the paper observed repeatedly in traces.
  bool DelTimer(LinuxTimer* timer);

  bool TimerPending(const LinuxTimer* timer) const { return timer->pending; }

  // --- High-resolution timers ---

  LinuxHrTimer* InitHrTimer(const std::string& callsite, std::function<void()> fn,
                            Pid pid = kKernelPid, Tid tid = 0);
  void StartHrTimer(LinuxHrTimer* timer, SimDuration timeout);
  bool CancelHrTimer(LinuxHrTimer* timer);

  // --- Statistics ---
  uint64_t ticks_serviced() const { return ticks_serviced_; }
  uint64_t ticks_skipped() const { return ticks_skipped_; }  // dynticks savings
  uint64_t noop_deletes() const { return noop_deletes_; }
  uint64_t timers_allocated() const { return static_cast<uint64_t>(timers_.size()); }

 private:
  void Log(TimerOp op, const LinuxTimer& t, SimDuration timeout, SimTime expiry,
           uint16_t extra_flags);
  // Core arming path shared by the ModTimer variants; logs a kSet record
  // with `observed_timeout` as the value seen at the tracepoint.
  void Arm(LinuxTimer* timer, Jiffies expires, SimDuration observed_timeout,
           uint16_t extra_flags);
  void ForgetWakeup(const LinuxTimer& timer);
  void LogHr(TimerOp op, const LinuxHrTimer& t, SimDuration timeout, SimTime expiry);
  void OnTick();
  void ScheduleNextTick();
  void ReprogramTickIfNeeded(Jiffies needed);
  void OnHrInterrupt();
  void ReprogramHrEvent();

  Simulator* sim_;
  TraceSink* sink_;
  Options options_;
  CallsiteRegistry callsites_;

  Jiffies jiffies_ = 0;
  bool booted_ = false;
  bool in_tick_ = false;  // suppress tick reprogramming during __run_timers
  EventId tick_event_ = kInvalidEventId;
  Jiffies tick_scheduled_for_ = 0;

  HierarchicalWheelTimerQueue wheel_{kJiffy};
  // Pending non-deferrable expiries; what dynticks consults to pick the
  // next mandatory wakeup. Kept only while dynticks is on: nothing else
  // reads it.
  std::multiset<Jiffies> pending_wakeups_;

  TreeTimerQueue hr_tree_;
  EventId hr_event_ = kInvalidEventId;
  SimTime hr_event_time_ = kNeverTime;

  std::deque<std::unique_ptr<LinuxTimer>> timers_;
  std::deque<std::unique_ptr<LinuxHrTimer>> hr_timers_;
  TimerId next_timer_id_ = 1;

  uint64_t ticks_serviced_ = 0;
  uint64_t ticks_skipped_ = 0;
  uint64_t noop_deletes_ = 0;
};

}  // namespace tempo

#endif  // TEMPO_SRC_OSLINUX_KERNEL_H_

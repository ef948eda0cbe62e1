// Model of the Windows Vista (NT) kernel timer facilities.
//
// All of Vista's timer interfaces bottom out in KTIMER objects kept in a
// timer table that the clock-interrupt DPC processes (Section 2.2). The
// model reproduces the structural properties the paper measures:
//
//   * KTIMERs are usually allocated on the fly and not reused, so the trace
//     has no stable timer identity — analysis must cluster by call-site
//     (kFlagDynamicAlloc on the records);
//   * expiry is processed at clock-interrupt granularity (15.625 ms by
//     default), so sub-tick timeouts are delivered "at essentially random
//     times" relative to their duration (Figures 8-11, Vista panes);
//   * thread waits (WaitForSingleObject et al.) use a dedicated per-thread
//     KTIMER with fast-path insertion that bypasses KeSetTimer, so they are
//     instrumented separately as block/unblock events carrying the
//     user-supplied timeout and a wait-satisfied boolean (Section 3.3).

#ifndef TEMPO_SRC_OSVISTA_KERNEL_H_
#define TEMPO_SRC_OSVISTA_KERNEL_H_

#include <deque>
#include <map>
#include <set>
#include <functional>
#include <memory>
#include <string>

#include "src/sim/simulator.h"
#include "src/timer/tree_queue.h"
#include "src/trace/buffer.h"
#include "src/trace/callsite.h"

namespace tempo {

// Default clock interrupt period (64 Hz).
inline constexpr SimDuration kVistaClockTick = 15625 * kMicrosecond;

// An NT kernel timer object. Most are allocated per use (dynamic); the
// per-thread wait timers are the stable exception.
struct KTimer {
  TimerId id = kInvalidTimerId;
  CallsiteId callsite = kUnknownCallsite;
  StackId stack = kEmptyStack;
  Pid pid = kKernelPid;
  Tid tid = 0;
  bool dynamic = true;              // freshly allocated, not reused
  std::function<void()> dpc;        // deferred procedure call on expiry

  bool pending = false;
  SimTime due = 0;
  SimTime set_time = 0;
  SimDuration last_timeout = 0;
  TimerHandle table_handle = kInvalidTimerHandle;
};

// The Vista kernel timer subsystem model.
class VistaKernel {
 public:
  struct Options {
    // Clock interrupt period. Vista adjusts this dynamically; tests can
    // lower it to model high-resolution multimedia timers.
    SimDuration clock_tick;
    // Skip clock interrupts with no due timers (Vista's tick coalescing /
    // "processing timers according to observed CPU load").
    bool coalesce_ticks;

    Options() : clock_tick(kVistaClockTick), coalesce_ticks(false) {}
  };

  // `sink` receives all trace records; it must outlive the kernel. The
  // clock interrupt, timer table and RNG draws all run on `sim`.
  VistaKernel(Simulator* sim, TraceSink* sink);
  VistaKernel(Simulator* sim, TraceSink* sink, Options options);
  VistaKernel(const VistaKernel&) = delete;
  VistaKernel& operator=(const VistaKernel&) = delete;

  // Starts the clock interrupt.
  void Boot();

  Simulator& sim() { return *sim_; }
  CallsiteRegistry& callsites() { return callsites_; }

  // --- KTIMER interface ---

  // Allocates a KTIMER. `dynamic` timers model per-call heap allocation:
  // storage (and thus trace identity) is recycled from freed timers, so
  // successive logical timeouts may alias one identity and one logical
  // timeout may span many — records carry kFlagDynamicAlloc so the
  // analysis clusters by call-site instead. Allocation is not traced.
  KTimer* AllocateTimer(const std::string& callsite, Pid pid, Tid tid,
                        std::function<void()> dpc, bool dynamic = true,
                        CallsiteId parent = kUnknownCallsite);

  // KeSetTimer: arms for `timeout` from now (negative NT "relative" times
  // map to positive durations here). Re-arming a pending timer implicitly
  // cancels it first (NT semantics), without a cancel record.
  void KeSetTimer(KTimer* timer, SimDuration timeout);

  // KeCancelTimer. Returns whether the timer was pending.
  bool KeCancelTimer(KTimer* timer);

  // Frees a dynamically allocated timer (cancels if pending, without a
  // cancel record — mirroring object deletion).
  void FreeTimer(KTimer* timer);

  // --- Timer resolution (timeBeginPeriod / timeEndPeriod) ---

  // Multimedia applications request a finer clock-interrupt period; the
  // effective period is the smallest outstanding request (never below
  // 1 ms), restored when requests are released — the mechanism behind
  // "Vista dynamically adjusts the frequency of the periodic timer
  // interrupt" (Section 1).
  void BeginTimerResolution(SimDuration period);
  void EndTimerResolution(SimDuration period);
  SimDuration effective_tick() const;

  // --- Thread waits (dispatcher objects) ---

  // WaitForSingleObject/KeDelayExecutionThread with timeout. Logs a kBlock
  // record; on wake logs kUnblock with kFlagWaitSatisfied if `Signal` beat
  // the timeout. The returned WaitHandle can be signalled once.
  class Wait;
  Wait* BlockThread(Pid pid, Tid tid, const std::string& callsite, SimDuration timeout,
                    std::function<void(bool satisfied)> on_wake);

  // Signals a waiting thread (the object it waited on became available).
  // Returns false if the wait already completed.
  bool Signal(Wait* wait);

  // --- Statistics ---
  uint64_t clock_interrupts() const { return clock_interrupts_; }
  uint64_t ticks_coalesced() const { return ticks_coalesced_; }
  uint64_t timers_allocated() const { return next_timer_id_ - 1; }

 private:
  void Log(TimerOp op, const KTimer& t, SimDuration timeout, SimTime expiry,
           uint16_t extra_flags);
  void OnClockInterrupt();
  void ScheduleNextTick();
  void CompleteWait(Wait* wait, bool satisfied);
  // With tick coalescing, a newly armed timer nearer than the scheduled
  // interrupt must pull the interrupt forward.
  void MaybeReprogramTick(SimTime due);

  Simulator* sim_;
  TraceSink* sink_;
  Options options_;
  CallsiteRegistry callsites_;

  bool booted_ = false;
  EventId tick_event_ = kInvalidEventId;
  SimTime tick_scheduled_for_ = kNeverTime;
  std::map<std::pair<Pid, Tid>, KTimer*> wait_timers_;

  // The timer table; expiry is only *processed* on clock interrupts, which
  // is where the quantisation comes from.
  TreeTimerQueue table_;
  // Outstanding timeBeginPeriod requests.
  std::multiset<SimDuration> resolution_requests_;

  std::deque<std::unique_ptr<KTimer>> timers_;
  std::deque<std::unique_ptr<KTimer>> free_timers_;
  std::deque<std::unique_ptr<Wait>> waits_;
  TimerId next_timer_id_ = 1;

  uint64_t clock_interrupts_ = 0;
  uint64_t ticks_coalesced_ = 0;
};

// Outstanding thread wait state.
class VistaKernel::Wait {
 public:
  bool done() const { return done_; }
  Tid tid() const { return tid_; }

 private:
  friend class VistaKernel;
  VistaKernel* kernel_ = nullptr;
  KTimer* timer_ = nullptr;  // per-thread wait timer (stable identity)
  Pid pid_ = kKernelPid;
  Tid tid_ = 0;
  bool done_ = false;
  bool has_timeout_ = false;
  SimTime block_start_ = 0;
  SimDuration timeout_ = 0;
  CallsiteId callsite_ = kUnknownCallsite;
  std::function<void(bool)> on_wake_;
};

}  // namespace tempo

#endif  // TEMPO_SRC_OSVISTA_KERNEL_H_

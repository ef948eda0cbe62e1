// Substrate-independent timer surface for the Section-5 libraries.
//
// The adaptive and use-case-specific interfaces are deliberately written
// against a four-method surface, so they run over a bare simulator (tests,
// benches), over the instrumented Linux kernel model (so their activity is
// traceable like any other timer client), or — in a real system — over
// whatever the host provides.

#ifndef TEMPO_SRC_ADAPTIVE_TIMER_SERVICE_H_
#define TEMPO_SRC_ADAPTIVE_TIMER_SERVICE_H_

#include <deque>
#include <functional>
#include <map>
#include <string>

#include "src/oslinux/kernel.h"
#include "src/sim/simulator.h"

namespace tempo {

// Handle to an armed service timer; 0 invalid.
using ServiceTimerId = uint64_t;
inline constexpr ServiceTimerId kInvalidServiceTimer = 0;

// The minimal set/cancel surface (the very interface the paper argues is
// too low-level — everything in this module is built on top of it).
class TimerSurface {
 public:
  virtual ~TimerSurface() = default;

  // Arms a one-shot timer `timeout` from now.
  virtual ServiceTimerId Arm(SimDuration timeout, std::function<void()> fire) = 0;

  // Cancels; false if already fired/canceled/unknown.
  virtual bool Cancel(ServiceTimerId id) = 0;

  // Current time.
  virtual SimTime Now() const = 0;

  // Number of Arm calls (for overhead comparisons).
  virtual uint64_t arms() const = 0;
};

// TimerSurface over a bare simulator.
class SimTimerService : public TimerSurface {
 public:
  explicit SimTimerService(Simulator* sim) : sim_(sim) {}

  ServiceTimerId Arm(SimDuration timeout, std::function<void()> fire) override;
  bool Cancel(ServiceTimerId id) override;
  SimTime Now() const override { return sim_->Now(); }
  uint64_t arms() const override { return arms_; }

 private:
  Simulator* sim_;
  std::map<ServiceTimerId, EventId> live_;
  ServiceTimerId next_ = 1;
  uint64_t arms_ = 0;
};

// TimerSurface over the instrumented Linux kernel model: every Arm is a
// real (traced) kernel timer set from the given call-site.
class LinuxTimerService : public TimerSurface {
 public:
  LinuxTimerService(LinuxKernel* kernel, const std::string& callsite, Pid pid);

  ServiceTimerId Arm(SimDuration timeout, std::function<void()> fire) override;
  bool Cancel(ServiceTimerId id) override;
  SimTime Now() const override;
  uint64_t arms() const override { return arms_; }

 private:
  struct Slot {
    LinuxTimer* timer = nullptr;
    ServiceTimerId current = kInvalidServiceTimer;
    std::function<void()> fire;
  };
  LinuxKernel* kernel_;
  std::string callsite_;
  Pid pid_;
  std::deque<std::unique_ptr<Slot>> slots_;
  std::deque<Slot*> free_slots_;
  std::map<ServiceTimerId, Slot*> live_;
  ServiceTimerId next_ = 1;
  uint64_t arms_ = 0;
};

}  // namespace tempo

#endif  // TEMPO_SRC_ADAPTIVE_TIMER_SERVICE_H_

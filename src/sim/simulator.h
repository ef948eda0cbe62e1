// The tempo discrete-event simulator.
//
// A Simulator owns virtual time, the pending-event queue, the RNG, the CPU
// model and the process registry. OS models (src/oslinux, src/osvista)
// build their clock interrupts and timer subsystems on top of its
// ScheduleAt/Cancel; workloads never touch the event queue directly, only
// OS timer APIs — mirroring the layering the paper describes in Section 2.
//
// The paper traces one OS whose records form a single timestamp-ordered
// stream, so the simulator is one serial event loop: events run one at a
// time in (timestamp, scheduling order), and a seed fixes the whole run.

#ifndef TEMPO_SRC_SIM_SIMULATOR_H_
#define TEMPO_SRC_SIM_SIMULATOR_H_

#include <functional>
#include <memory>
#include <string>

#include "src/obs/metrics.h"
#include "src/sim/cpu.h"
#include "src/sim/event_queue.h"
#include "src/sim/process.h"
#include "src/sim/random.h"
#include "src/sim/time.h"

namespace tempo {

// Discrete-event simulation driver.
class Simulator {
 public:
  struct Options {
    uint64_t seed = 1;
    // Obs instrument label for this instance; instruments are registered
    // as sim_*{cpu="0",sim="<label>"}. Two simulators alive at once must
    // use distinct labels (instruments are shared by label); an empty
    // label suppresses sim self-metrics entirely.
    std::string stats_label = "sim";
  };

  explicit Simulator(uint64_t seed = 1);
  explicit Simulator(const Options& options);
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;
  // Uninstalls the sim probe clock if it still points at this instance
  // (InstallSimProbeClock), so a destroyed simulator can never be read
  // through a dangling probe-clock pointer.
  ~Simulator();

  // Current virtual time; inside an event callback, the firing event's
  // timestamp.
  SimTime Now() const { return now_; }

  // Schedules `fn` at absolute time `at`. Events scheduled in the past
  // fire at the current time (never travel backwards). Returns a
  // cancelable id.
  EventId ScheduleAt(SimTime at, std::function<void()> fn);

  // Schedules `fn` after `delay` (clamped to >= 0).
  EventId ScheduleAfter(SimDuration delay, std::function<void()> fn);

  // Cancels a pending event; false if it already fired or was canceled.
  bool Cancel(EventId id);

  // Keeps `fn` firing every `period` (first firing one period from now) for
  // as long as the returned token is held; dropping the token cancels the
  // series after at most one more already-scheduled firing's bookkeeping
  // (the callback itself will not run again). Background services — e.g. a
  // RelayDrainer polling trace channels — hook the event loop this way
  // without managing their own rescheduling.
  using PeriodicToken = std::shared_ptr<void>;
  [[nodiscard]] PeriodicToken SchedulePeriodic(SimDuration period,
                                               std::function<void()> fn);

  Rng& rng() { return rng_; }
  Cpu& cpu() { return cpu_; }

  // Runs until the queue is empty or Stop() is called.
  void Run() { RunUntil(kNeverTime); }

  // Runs until virtual time reaches `deadline` (events at exactly
  // `deadline` are executed), the queue drains, or Stop() is called. Unless
  // stopped, the clock then advances to `deadline` even if the queue
  // drained earlier. Finalizes idle accounting (Cpu::Finish) on every exit
  // path.
  void RunUntil(SimTime deadline);

  // Runs for `duration` more virtual time.
  void RunFor(SimDuration duration) { RunUntil(Now() + duration); }

  // Makes the current run return after the current event.
  void Stop() { stop_ = true; }

  // Number of events executed so far.
  uint64_t events_executed() const { return events_executed_; }

  // Number of live (scheduled, not yet fired or canceled) events.
  size_t PendingEvents() const { return queue_.Size(); }

  ProcessTable& processes() { return processes_; }
  const ProcessTable& processes() const { return processes_; }

 private:
  SimTime now_ = 0;
  bool stop_ = false;
  uint64_t events_executed_ = 0;
  EventQueue queue_;
  Rng rng_;
  Cpu cpu_;
  ProcessTable processes_;

  // Obs instruments; nullptr when stats_label is empty.
  obs::Counter* metric_events_ = nullptr;
  obs::Gauge* metric_queue_hwm_ = nullptr;
};

// Makes the obs probe clock read this simulator's virtual time (in
// nanoseconds) instead of the TSC, so metrics snapshots are deterministic
// and sim-mode runs perform no wall-clock reads. Pass nullptr to restore
// the default wall clock. The installed simulator auto-uninstalls itself
// on destruction.
void InstallSimProbeClock(Simulator* sim);

}  // namespace tempo

#endif  // TEMPO_SRC_SIM_SIMULATOR_H_

#include "src/sim/simulator.h"

#include <utility>

#include "src/obs/probe.h"

namespace tempo {

namespace {

// The simulator whose virtual clock backs the obs probe clock. A plain
// global: the probe clock is a captureless function pointer, and tempo
// processes drive one simulation at a time. ~Simulator() uninstalls
// itself, so this can never dangle past the simulator's lifetime.
Simulator* g_probe_clock_sim = nullptr;

uint64_t SimProbeClock() {
  return static_cast<uint64_t>(g_probe_clock_sim->Now());
}

// State of one periodic series. The token returned to the caller is the
// only shared_ptr; scheduled events hold weak_ptrs, so dropping the token
// makes the next firing a no-op and the chain stops rescheduling.
struct PeriodicState {
  SimDuration period;
  std::function<void()> fn;
};

void FirePeriodic(Simulator* sim, const std::weak_ptr<PeriodicState>& weak) {
  std::shared_ptr<PeriodicState> state = weak.lock();
  if (state == nullptr) {
    return;  // token dropped: series canceled
  }
  state->fn();
  sim->ScheduleAfter(state->period, [sim, weak] { FirePeriodic(sim, weak); });
}

}  // namespace

Simulator::Simulator(uint64_t seed) : Simulator(Options{.seed = seed}) {}

Simulator::Simulator(const Options& options) : rng_(options.seed) {
  if (options.stats_label.empty()) {
    return;
  }
  // The cpu="0" label names the one simulated CPU; scrapes and dashboards
  // key on it.
  const obs::Labels labels = {{"cpu", "0"}, {"sim", options.stats_label}};
  obs::Registry& reg = obs::Registry::Global();
  metric_events_ = reg.GetCounter("sim_events_executed", labels,
                                  "Events executed by the sim event loop");
  metric_queue_hwm_ =
      reg.GetGauge("sim_event_queue_depth_hwm", labels,
                   "High-water mark of live events in the pending-event queue");
  // The gauge is per-instance, not per-process: a fresh simulator
  // re-baselines it so back-to-back sims sharing a label never report a
  // stale high-water mark (two sims *alive at once* must still use
  // distinct labels, like TimerService).
  metric_queue_hwm_->Set(0);
}

Simulator::~Simulator() {
  if (g_probe_clock_sim == this) {
    InstallSimProbeClock(nullptr);
  }
}

EventId Simulator::ScheduleAt(SimTime at, std::function<void()> fn) {
  if (at < now_) {
    at = now_;
  }
  const EventId id = queue_.Schedule(at, std::move(fn));
  if (metric_queue_hwm_ != nullptr) {
    metric_queue_hwm_->Max(static_cast<int64_t>(queue_.Size()));
  }
  return id;
}

EventId Simulator::ScheduleAfter(SimDuration delay, std::function<void()> fn) {
  if (delay < 0) {
    delay = 0;
  }
  return ScheduleAt(now_ + delay, std::move(fn));
}

bool Simulator::Cancel(EventId id) { return queue_.Cancel(id); }

Simulator::PeriodicToken Simulator::SchedulePeriodic(SimDuration period,
                                                     std::function<void()> fn) {
  if (period <= 0) {
    period = 1;
  }
  auto state = std::make_shared<PeriodicState>();
  state->period = period;
  state->fn = std::move(fn);
  std::weak_ptr<PeriodicState> weak = state;
  ScheduleAfter(period, [this, weak] { FirePeriodic(this, weak); });
  return state;
}

void Simulator::RunUntil(SimTime deadline) {
  stop_ = false;
  while (!stop_) {
    const SimTime next = queue_.NextTime();
    if (next == kNeverTime || next > deadline) {
      break;
    }
    EventQueue::Fired fired = queue_.Pop();
    now_ = fired.at;
    ++events_executed_;
    if (metric_events_ != nullptr) {
      metric_events_->Inc();
    }
    fired.fn();
  }
  if (deadline != kNeverTime && !stop_ && now_ < deadline) {
    now_ = deadline;
  }
  cpu_.Finish(now_);
}

void InstallSimProbeClock(Simulator* sim) {
  g_probe_clock_sim = sim;
  obs::SetProbeClock(sim != nullptr ? &SimProbeClock : nullptr);
}

}  // namespace tempo

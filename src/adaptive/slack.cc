#include "src/adaptive/slack.h"

#include <algorithm>
#include <utility>

namespace tempo {

struct BatchingTimerService::Batch {
  SimTime at = 0;
  ServiceTimerId base_timer = kInvalidServiceTimer;
  std::vector<std::pair<ServiceTimerId, std::function<void()>>> members;
};

BatchingTimerService::BatchingTimerService(TimerSurface* base) : base_(base) {}

BatchingTimerService::~BatchingTimerService() = default;

ServiceTimerId BatchingTimerService::Arm(const TimeSpec& spec, std::function<void()> fire) {
  ++requests_;
  const SimTime now = base_->Now();
  const SimTime earliest = now + std::max<SimDuration>(spec.earliest, 0);
  const SimTime latest = now + std::max(spec.latest, spec.earliest);
  const ServiceTimerId id = next_++;

  // Reuse the first already-scheduled wakeup inside the window.
  auto it = batches_.lower_bound(earliest);
  if (it != batches_.end() && it->first <= latest) {
    it->second->members.emplace_back(id, std::move(fire));
    live_.emplace(id, it->second.get());
    return id;
  }

  // No batch fits: schedule a fresh wakeup at `latest` — the lazy choice
  // that maximises the chance of future requests joining this batch.
  auto batch = std::make_unique<Batch>();
  Batch* raw = batch.get();
  raw->at = latest;
  raw->members.emplace_back(id, std::move(fire));
  batches_.emplace(latest, std::move(batch));
  live_.emplace(id, raw);
  ++wakeups_scheduled_;
  raw->base_timer = base_->Arm(latest - now, [this, raw] { FireBatch(raw); });
  return id;
}

void BatchingTimerService::FireBatch(Batch* batch) {
  auto it = batches_.find(batch->at);
  if (it == batches_.end() || it->second.get() != batch) {
    return;
  }
  std::unique_ptr<Batch> owned = std::move(it->second);
  batches_.erase(it);
  for (auto& [id, fire] : owned->members) {
    live_.erase(id);
  }
  for (auto& [id, fire] : owned->members) {
    if (fire) {
      fire();
    }
  }
}

bool BatchingTimerService::Cancel(ServiceTimerId id) {
  auto it = live_.find(id);
  if (it == live_.end()) {
    return false;
  }
  Batch* batch = it->second;
  live_.erase(it);
  auto member = std::find_if(batch->members.begin(), batch->members.end(),
                             [id](const auto& m) { return m.first == id; });
  if (member != batch->members.end()) {
    batch->members.erase(member);
  }
  if (batch->members.empty()) {
    // Last member gone: cancel the underlying wakeup entirely.
    base_->Cancel(batch->base_timer);
    batches_.erase(batch->at);
  }
  return true;
}

SlackTicker::SlackTicker(BatchingTimerService* service, SimDuration period, SimDuration slack,
                         std::function<void()> fn)
    : service_(service), period_(period), slack_(slack), fn_(std::move(fn)) {}

void SlackTicker::Start() {
  if (running_) {
    return;
  }
  running_ = true;
  epoch_ = service_->Now();
  last_tick_ = epoch_;
  ticks_ = 0;
  ArmNext();
}

void SlackTicker::Stop() {
  if (!running_) {
    return;
  }
  running_ = false;
  if (current_ != kInvalidServiceTimer) {
    service_->Cancel(current_);
    current_ = kInvalidServiceTimer;
  }
}

void SlackTicker::ArmNext() {
  // Schedule off the nominal grid so the average frequency holds even when
  // individual ticks land late within their slack windows.
  const SimTime nominal = epoch_ + static_cast<SimDuration>(ticks_ + 1) * period_;
  const SimTime now = service_->Now();
  const SimDuration earliest = std::max<SimDuration>(0, nominal - slack_ / 2 - now);
  const SimDuration latest = std::max<SimDuration>(earliest, nominal + slack_ / 2 - now);
  current_ = service_->Arm(TimeSpec::Window(earliest, latest), [this] {
    current_ = kInvalidServiceTimer;
    if (!running_) {
      return;
    }
    ++ticks_;
    last_tick_ = service_->Now();
    if (fn_) {
      fn_();
    }
    if (running_) {
      ArmNext();
    }
  });
}

SimDuration SlackTicker::average_period() const {
  if (ticks_ == 0) {
    return 0;
  }
  return (last_tick_ - epoch_) / static_cast<SimDuration>(ticks_);
}

}  // namespace tempo

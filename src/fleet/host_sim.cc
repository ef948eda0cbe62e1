#include "src/fleet/host_sim.h"

#include <algorithm>
#include <thread>
#include <vector>

#include "src/fleet/wire.h"

namespace tempo {
namespace fleet {

namespace {

constexpr Pid kOutlookPid = 2;

// Deterministic per-host randomness (phases, burst jitter); the fleet must
// replay exactly from its seed.
uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

SimDuration PeriodFromRate(double rate) {
  return rate > 0.0 ? static_cast<SimDuration>(static_cast<double>(kSecond) / rate)
                    : kNeverTime;
}

}  // namespace

SimulatedHost::SimulatedHost(HostSimOptions options)
    : options_(std::move(options)),
      kernel_period_(PeriodFromRate(options_.shape.kernel_rate)),
      watchdog_period_(PeriodFromRate(options_.shape.watchdog_rate)),
      burst_period_(PeriodFromRate(options_.shape.burst_rate)),
      kernel_callsite_(callsites_.Intern("kernel/timer")),
      watchdog_callsite_(callsites_.Intern("outlook/watchdog")) {
  // Start phases offset per host so the fleet's ticks are not in unison.
  const uint64_t r = SplitMix64(options_.seed);
  kernel_next_ = static_cast<SimTime>(r % static_cast<uint64_t>(kernel_period_));
  watchdog_next_ =
      static_cast<SimTime>(SplitMix64(r) % static_cast<uint64_t>(watchdog_period_));

  // Small geometry: a fleet of a thousand hosts must fit in memory, and the
  // producer drains its own channels, so deep buffering buys nothing.
  const RelayChannelConfig config{256, 4};
  kernel_channel_ = channels_.Register(options_.name + "/kernel", config);
  outlook_channel_ = channels_.Register(options_.name + "/outlook", config);

  live::LiveOptions live;
  live.window = options_.window;
  live.ring_windows = 64;
  live.grouping.pid_labels = {{kOutlookPid, "outlook.exe"}};
  live.callsites = &callsites_;
  // Empty labels: a fleet host must not touch the process-global obs
  // registry — a thousand analyzers sharing {series=outlook.exe}
  // instruments would break the single-writer rule.
  live.stats_label.clear();
  analyzer_ = std::make_unique<live::LiveAnalyzer>(live);
  drainer_ = std::make_unique<RelayDrainer>(
      &channels_,
      [this](const TraceRecord& record) {
        analyzer_->Ingest(record);
        slack_.Ingest(record);
        patterns_.Ingest(record);
      },
      /*instrumented=*/false);
}

void SimulatedHost::Log(RelayChannel* channel, const TraceRecord& record) {
  if (!channel->TryLog(record)) {
    // Ring full: drain (we are the consumer too) and retry once. A second
    // failure is a genuine drop and stays in the channel's accounting.
    drainer_->Poll();
    channel->TryLog(record);
  }
  if (++logs_since_poll_ >= 512) {
    logs_since_poll_ = 0;
    drainer_->Poll();
  }
}

void SimulatedHost::AdvanceTo(SimTime now) {
  const HostWorkloadShape& shape = options_.shape;
  const SimTime burst_end = shape.burst_at + shape.burst_duration;
  while (true) {
    const SimTime t = std::min(kernel_next_, watchdog_next_);
    if (t >= now) {
      break;
    }
    if (kernel_next_ <= watchdog_next_) {
      TraceRecord record;
      record.timestamp = t;
      record.timer = 1 + static_cast<TimerId>(kernel_timer_);
      record.timeout = kernel_period_ * static_cast<SimDuration>(shape.kernel_timers);
      record.expiry = t + record.timeout;
      record.callsite = kernel_callsite_;
      record.pid = kKernelPid;
      if (kernel_expire_pending_) {
        // The previous pass armed this timer one full rotation ago; its
        // expiry lands on this tick, keeping set and expire rates equal.
        TraceRecord expire = record;
        expire.op = TimerOp::kExpire;
        Log(kernel_channel_, expire);
      }
      record.op = TimerOp::kSet;
      Log(kernel_channel_, record);
      kernel_timer_ = (kernel_timer_ + 1) % shape.kernel_timers;
      kernel_expire_pending_ = kernel_expire_pending_ || kernel_timer_ == 0;
      kernel_next_ = t + kernel_period_;
    } else {
      TraceRecord record;
      record.timestamp = t;
      record.timer = 1000 + static_cast<TimerId>(watchdog_timer_);
      record.timeout = shape.watchdog_timeout;
      record.expiry = t + record.timeout;
      record.callsite = watchdog_callsite_;
      record.pid = kOutlookPid;
      record.tid = 1;
      record.op = TimerOp::kSet;
      record.flags = kFlagUser;
      Log(outlook_channel_, record);
      watchdog_timer_ = (watchdog_timer_ + 1) % shape.watchdog_timers;
      const bool bursting = t >= shape.burst_at && t < burst_end;
      watchdog_next_ = t + (bursting ? burst_period_ : watchdog_period_);
    }
  }
  drainer_->Poll();
}

void SimulatedHost::Finish() {
  if (finished_) {
    return;
  }
  finished_ = true;
  channels_.CloseAll();
  drainer_->Finish();
}

HostSummary SimulatedHost::BuildSummary() {
  if (!finished_) {
    kernel_channel_->FlushOpen();
    outlook_channel_->FlushOpen();
    drainer_->Poll();
  }
  HostSummary summary = BuildHostSummary(options_.name, ++sequence_,
                                         analyzer_->TakeSnapshot(), &channels_, &slack_,
                                         &patterns_);
  summary.metrics.push_back(
      {"relay_accepted",
       static_cast<int64_t>(kernel_channel_->accepted() + outlook_channel_->accepted())});
  summary.metrics.push_back({"drainer_emitted", static_cast<int64_t>(drainer_->emitted())});
  return summary;
}

bool SimulatedHost::Publish(ByteSink* sink) {
  const std::vector<uint8_t> frame = EncodeSummaryFrame(BuildSummary());
  return sink->Write(frame.data(), frame.size());
}

FleetRunResult RunFleet(const FleetRunOptions& options) {
  struct Slot {
    std::unique_ptr<SimulatedHost> host;
    std::unique_ptr<ByteSink> sink;
    bool alive = true;
  };
  std::vector<Slot> slots(options.hosts);
  // Jitter each host's burst start across what the run length allows,
  // leaving two windows of post-burst quiet so the last burst window
  // closes well before the run ends.
  const SimDuration jitter_room =
      std::max<SimDuration>(0, options.duration - 2 * kSecond -
                                   options.shape.burst_duration -
                                   options.shape.burst_at);
  for (size_t i = 0; i < slots.size(); ++i) {
    HostSimOptions host;
    host.name = options.host_prefix + std::to_string(i);
    host.seed = SplitMix64(options.seed + 0x517cc1b727220a95ull * (i + 1));
    host.shape = options.shape;
    if (jitter_room > 0) {
      host.shape.burst_at += static_cast<SimDuration>(
          SplitMix64(host.seed) % static_cast<uint64_t>(jitter_room));
    }
    slots[i].host = std::make_unique<SimulatedHost>(std::move(host));
    slots[i].sink = options.connect(slots[i].host->name());
    // A failed connect is a host that is dead from round one: it still
    // simulates (the fleet's workload shape must not depend on transport
    // health) but never publishes, and the aggregator reports it missing.
    slots[i].alive = slots[i].sink != nullptr;
  }

  size_t threads = options.threads;
  if (threads == 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    threads = hw == 0 ? 2 : std::min<size_t>(hw, 8);
  }
  threads = std::max<size_t>(1, std::min(threads, slots.size()));

  // Lockstep rounds: every host advances to `t` and publishes; joining the
  // round's workers orders each host's state for whichever worker drives
  // it next round.
  const auto round = [&](SimTime t, bool last) {
    std::vector<std::thread> workers;
    workers.reserve(threads);
    const size_t chunk = (slots.size() + threads - 1) / threads;
    for (size_t w = 0; w < threads; ++w) {
      const size_t begin = w * chunk;
      const size_t end = std::min(slots.size(), begin + chunk);
      if (begin >= end) {
        break;
      }
      workers.emplace_back([&, begin, end, t, last] {
        for (size_t i = begin; i < end; ++i) {
          Slot& slot = slots[i];
          slot.host->AdvanceTo(t);
          if (last) {
            slot.host->Finish();
          }
          if (slot.alive) {
            slot.alive = slot.host->Publish(slot.sink.get());
          }
          if (last && slot.sink != nullptr) {
            slot.sink->Close();
          }
        }
      });
    }
    for (std::thread& worker : workers) {
      worker.join();
    }
  };

  SimTime t = 0;
  while (t < options.duration) {
    t = std::min<SimTime>(t + options.publish_period, options.duration);
    round(t, t == options.duration);
    if (options.after_round) {
      options.after_round(t);
    }
  }

  FleetRunResult result;
  result.hosts = slots.size();
  for (Slot& slot : slots) {
    result.records += slot.host->analyzer().records_ingested();
    result.frames += slot.host->frames_published();
  }
  return result;
}

}  // namespace fleet
}  // namespace tempo

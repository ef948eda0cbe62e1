// Simulated fleet hosts: the Figure 1 desktop, multiplied.
//
// A SimulatedHost is one desktop's worth of the paper's workload — a
// kernel tick source around 1000 sets/s and an outlook.exe whose 5-second
// UI watchdog idles near 70 sets/s and storms to ~7000 sets/s for about a
// second — generated deterministically from a seed, logged through the
// host's own lock-free relay channels, drained into the host's own
// (uninstrumented) live taps, and published as wire-framed summaries.
// Every host is an independent replica of the single-host tempotop
// pipeline; nothing is shared between hosts except the transport they
// publish into.
//
// RunFleet drives K hosts in lockstep publish rounds across a small worker
// pool: each round every host advances its virtual clock by one publish
// period and emits a summary, so a collector on the other side of the
// transport sees a fleet of hosts that agree on time to within a round.

#ifndef TEMPO_SRC_FLEET_HOST_SIM_H_
#define TEMPO_SRC_FLEET_HOST_SIM_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "src/fleet/summary.h"
#include "src/live/live_analyzer.h"
#include "src/live/pattern_tracker.h"
#include "src/live/slack_tracker.h"
#include "src/sim/time.h"
#include "src/trace/callsite.h"
#include "src/trace/relay.h"
#include "src/trace/transport.h"

namespace tempo {
namespace fleet {

// Rates and burst timing of one host's workload.
struct HostWorkloadShape {
  double kernel_rate = 1000.0;   // kernel sets/s (each set pairs with an expire)
  size_t kernel_timers = 64;     // distinct kernel timer ids, round-robin
  double watchdog_rate = 70.0;   // outlook.exe steady sets/s
  size_t watchdog_timers = 8;    // distinct watchdog timer ids
  SimDuration watchdog_timeout = 5 * kSecond;  // the 5 s UI watchdog value
  double burst_rate = 7000.0;    // outlook.exe sets/s during the storm
  SimTime burst_at = 3 * kSecond;
  SimDuration burst_duration = 1500 * kMillisecond;
};

struct HostSimOptions {
  std::string name = "desktop-0";
  uint64_t seed = 1;
  HostWorkloadShape shape;
  SimDuration window = kSecond;  // live analyzer rate window
};

// One host: workload generator -> relay channels -> drainer -> live taps.
// Single-threaded; RunFleet guarantees one thread touches a host at a time.
class SimulatedHost {
 public:
  explicit SimulatedHost(HostSimOptions options);
  SimulatedHost(const SimulatedHost&) = delete;
  SimulatedHost& operator=(const SimulatedHost&) = delete;

  // Generates, logs and drains all records with timestamps below `now`.
  void AdvanceTo(SimTime now);

  // Closes the channels and drains every remaining record; call once,
  // before the final Publish.
  void Finish();

  // Builds the next cumulative summary (sequence starts at 1), frames it
  // and writes it to `sink`. False once the sink rejects a write.
  bool Publish(ByteSink* sink);

  // The summary the next Publish would frame — for direct ingestion in
  // tests and benches, bypassing the wire.
  HostSummary BuildSummary();

  const std::string& name() const { return options_.name; }
  const live::LiveAnalyzer& analyzer() const { return *analyzer_; }
  const live::SlackTracker& slack() const { return slack_; }
  const live::PatternTracker& patterns() const { return patterns_; }
  RelayChannelSet* channels() { return &channels_; }
  uint64_t frames_published() const { return sequence_; }

 private:
  void Log(RelayChannel* channel, const TraceRecord& record);

  HostSimOptions options_;
  SimDuration kernel_period_;
  SimDuration watchdog_period_;
  SimDuration burst_period_;
  SimTime kernel_next_;
  SimTime watchdog_next_;
  size_t kernel_timer_ = 0;
  size_t watchdog_timer_ = 0;
  bool kernel_expire_pending_ = false;  // first tick has nothing to expire

  CallsiteRegistry callsites_;
  CallsiteId kernel_callsite_;
  CallsiteId watchdog_callsite_;
  RelayChannelSet channels_;
  RelayChannel* kernel_channel_;
  RelayChannel* outlook_channel_;
  std::unique_ptr<live::LiveAnalyzer> analyzer_;
  // Empty labels, like the analyzer: fleet replicas stay off the obs
  // registry. A thousand hosts share one process: at 1 Ki episodes a
  // host's pattern fold stays near 90 KB.
  live::SlackTracker slack_{""};
  live::PatternTracker patterns_{"", 1024};
  std::unique_ptr<RelayDrainer> drainer_;
  size_t logs_since_poll_ = 0;
  uint64_t sequence_ = 0;
  bool finished_ = false;
};

struct FleetRunOptions {
  size_t hosts = 4;
  SimDuration duration = 8 * kSecond;
  SimDuration publish_period = 500 * kMillisecond;
  uint64_t seed = 1;
  // Worker threads driving hosts each round; 0 picks a small default.
  size_t threads = 0;
  std::string host_prefix = "desktop-";
  HostWorkloadShape shape;
  // Opens the transport one host publishes into. Required. Called once per
  // host, from the caller's thread, before the first round.
  std::function<std::unique_ptr<ByteSink>(const std::string& host)> connect;
  // Runs on the caller's thread after every lockstep round (hosts idle).
  std::function<void(SimTime now)> after_round;
};

struct FleetRunResult {
  size_t hosts = 0;
  uint64_t records = 0;  // records ingested across all host analyzers
  uint64_t frames = 0;   // summaries published across all hosts
};

// Drives a fleet of simulated hosts to `duration`, publishing each round,
// closing every transport at the end. Burst start times are jittered per
// host (within the run) so the storm is not perfectly synchronised.
FleetRunResult RunFleet(const FleetRunOptions& options);

}  // namespace fleet
}  // namespace tempo

#endif  // TEMPO_SRC_FLEET_HOST_SIM_H_

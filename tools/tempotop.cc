// tempotop — live timer observatory. Runs a workload with a live tap on
// its trace path and shows, while the simulation executes, what an
// operator of the timer subsystem would want on a dashboard: the top-K
// per-process set/expire/cancel rates (Figure 1 computed online), active
// rate bursts (the Outlook watchdog storms), firing slack, the usage-pattern
// mix, relay-channel drop counters, and the obs metrics snapshot.
//
// The workload tees every recorded trace record into a relay channel; a
// RelayDrainer polls that channel on a simulated-time cadence and feeds
// the timestamp-ordered merge to a LiveAnalyzer, a SlackTracker and a
// PatternTracker (src/live). Nothing here re-reads the recorded trace:
// every number on screen was computed online, in bounded memory, from the
// drain path. The rate rings hold one slot per --window of the run, at most
// 65536 (18 hours at the default 1 s); a --minutes/--window pair that needs
// more exits 2. The pattern mix is Figure 2's offline rule over the
// call-site groups seen so far; its fold holds up to 4 Mi episodes, 30
// minutes of the busiest workload, before it starts over.
//
//   workload: linux-{idle,skype,firefox,webserver},
//             vista-{idle,skype,firefox,webserver,desktop}, or `service`
//             (drives the sharded TimerService through its relay trace
//             path instead of a simulated OS).
//
// --check-burst and --check-rate turn the tool into an assertion for CI:
// exit 1 unless the named series saw a burst of at least the given rate /
// kept its mean rate inside the given band.
//
// Workload and `service` runs probe the timer queues with tempostat's
// deterministic virtual clock, so a --once view is byte-identical for one
// seed. --cluster runs its hosts on fleet threads and measures wall cycles.

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "src/analysis/latency.h"
#include "src/fleet/aggregator.h"
#include "src/fleet/host_sim.h"
#include "src/fleet/server.h"
#include "src/live/live_analyzer.h"
#include "src/live/pattern_tracker.h"
#include "src/live/slack_tracker.h"
#include "src/obs/probe.h"
#include "src/obs/scrape_server.h"
#include "src/obs/snapshot.h"
#include "src/sim/simulator.h"
#include "src/timer/timer_service.h"
#include "src/trace/relay.h"
#include "src/trace/transport.h"
#include "src/workloads/run.h"
#include "tools/common.h"

namespace tempo {
namespace {

// The most windows a live rate ring may hold: 18 hours at the default 1 s
// window. Each ring keeps kRingSlack windows beyond the run's length.
constexpr size_t kMaxRingWindows = 65536;
constexpr size_t kRingSlack = 16;

// Labels every registered process by its own name; pids the table does not
// know (there are none in practice) fall under "System".
RateGrouping GroupingFrom(const ProcessTable& table) {
  RateGrouping grouping;
  for (const Process& p : table.processes()) {
    if (p.pid != kKernelPid) {
      grouping.pid_labels[p.pid] = p.name;
    }
  }
  return grouping;
}

void PrintSeries(std::FILE* out, const char* title,
                 const std::vector<live::LiveSeriesStats>& series) {
  if (series.empty()) {
    return;
  }
  std::fprintf(out, "%s\n", title);
  std::fprintf(out, "  %-28s %10s %10s %10s %9s %9s %9s  %s\n", "label", "sets",
               "expires", "cancels", "mean/s", "last/s", "peak/s", "burst");
  for (const live::LiveSeriesStats& s : series) {
    std::string burst;
    if (s.bursts > 0) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%s%" PRIu64 " (peak %.0f/s)",
                    s.burst_active ? "*ACTIVE* " : "", s.bursts, s.burst_peak_rate);
      burst = buf;
    }
    std::fprintf(out, "  %-28s %10" PRIu64 " %10" PRIu64 " %10" PRIu64
                      " %9.1f %9.1f %9.1f  %s\n",
                 s.label.c_str(), s.sets, s.expires, s.cancels, s.mean_rate,
                 s.last_rate, s.peak_rate, burst.c_str());
  }
}

void PrintText(std::FILE* out, const std::string& workload,
               const live::LiveSnapshot& snap, const live::PatternTracker& patterns,
               RelayChannelSet* channels, const std::string& latency_pane) {
  std::fprintf(out, "tempotop — %s @ %.1fs (window %.3fs, %" PRIu64 " records)\n",
               workload.c_str(), ToSeconds(snap.now), ToSeconds(snap.window),
               snap.records);
  PrintSeries(out, "processes:", snap.processes);
  PrintSeries(out, "origins:", snap.origins);
  const auto mix = patterns.Mix();
  if (!mix.empty()) {
    std::fprintf(out, "patterns:");
    for (const auto& [name, count] : mix) {
      std::fprintf(out, " %s=%" PRIu64, name.c_str(), count);
    }
    std::fprintf(out, "  (tracked %zu, evicted %" PRIu64 ")\n", patterns.tracked(),
                 patterns.evictions());
  }
  if (!latency_pane.empty()) {
    std::fputs(latency_pane.c_str(), out);
  }
  std::fprintf(out, "relay:");
  for (size_t i = 0; i < channels->size(); ++i) {
    const RelayChannel* ch = channels->channel(i);
    std::fprintf(out, " %s accepted=%" PRIu64 " dropped=%" PRIu64,
                 ch->name().c_str(), ch->accepted(), ch->dropped());
  }
  std::fprintf(out, "\n");
  if (snap.windows_evicted > 0) {
    std::fprintf(out, "note: %" PRIu64 " rate windows evicted (ring too small"
                      " for this run length)\n", snap.windows_evicted);
  }
}

void PrintJsonSeries(std::string* out, const char* key,
                     const std::vector<live::LiveSeriesStats>& series) {
  *out += std::string("\"") + key + "\":[";
  for (size_t i = 0; i < series.size(); ++i) {
    const live::LiveSeriesStats& s = series[i];
    if (i > 0) {
      *out += ",";
    }
    char buf[512];
    std::snprintf(buf, sizeof(buf),
                  "{\"label\":\"%s\",\"sets\":%" PRIu64 ",\"expires\":%" PRIu64
                  ",\"cancels\":%" PRIu64
                  ",\"mean_rate\":%.3f,\"last_rate\":%.3f,\"peak_rate\":%.3f"
                  ",\"peak_at_s\":%.3f,\"burst_active\":%s,\"bursts\":%" PRIu64
                  ",\"burst_peak_rate\":%.3f}",
                  obs::JsonEscape(s.label).c_str(), s.sets, s.expires, s.cancels,
                  s.mean_rate, s.last_rate, s.peak_rate, s.peak_at_s,
                  s.burst_active ? "true" : "false", s.bursts, s.burst_peak_rate);
    *out += buf;
  }
  *out += "]";
}

void PrintJsonLatency(std::string* json, const SlackState& state) {
  char buf[512];
  const SlackHist& total = state.total();
  std::snprintf(buf, sizeof(buf),
                "\"latency\":{\"fired\":%" PRIu64 ",\"canceled\":%" PRIu64
                ",\"rearmed\":%" PRIu64 ",\"open\":%" PRIu64 ",\"early\":%" PRIu64
                ",\"unmatched\":%" PRIu64
                ",\"slack_p50_ns\":%.0f,\"slack_p99_ns\":%.0f,\"slack_max_ns\":%" PRIu64
                "},",
                state.fired_spans(), state.canceled_spans(), state.rearmed_spans(),
                state.open_spans(), state.early_fires(), state.unmatched_closes(),
                total.Quantile(0.50), total.Quantile(0.99), total.max);
  *json += buf;
}

void PrintJson(std::FILE* out, const std::string& workload,
               const live::LiveSnapshot& snap, const live::PatternTracker& patterns,
               RelayChannelSet* channels, const SlackState& slack) {
  std::string json = "{";
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "\"workload\":\"%s\",\"now_s\":%.3f,\"window_s\":%.3f,"
                "\"records\":%" PRIu64 ",",
                obs::JsonEscape(workload).c_str(), ToSeconds(snap.now),
                ToSeconds(snap.window), snap.records);
  json += buf;
  PrintJsonLatency(&json, slack);
  PrintJsonSeries(&json, "processes", snap.processes);
  json += ",";
  PrintJsonSeries(&json, "origins", snap.origins);
  json += ",\"patterns\":{";
  const auto mix = patterns.Mix();
  for (size_t i = 0; i < mix.size(); ++i) {
    if (i > 0) {
      json += ",";
    }
    std::snprintf(buf, sizeof(buf), "\"%s\":%" PRIu64, mix[i].first.c_str(),
                  mix[i].second);
    json += buf;
  }
  std::snprintf(buf, sizeof(buf),
                "},\"classifier\":{\"tracked\":%zu,\"evictions\":%" PRIu64
                "},\"windows_evicted\":%" PRIu64 ",\"relay\":[",
                patterns.tracked(), patterns.evictions(), snap.windows_evicted);
  json += buf;
  for (size_t i = 0; i < channels->size(); ++i) {
    const RelayChannel* ch = channels->channel(i);
    if (i > 0) {
      json += ",";
    }
    std::snprintf(buf, sizeof(buf),
                  "{\"channel\":\"%s\",\"accepted\":%" PRIu64 ",\"dropped\":%" PRIu64
                  "}",
                  obs::JsonEscape(ch->name()).c_str(), ch->accepted(), ch->dropped());
    json += buf;
  }
  json += "],\"metrics\":";
  json += obs::RenderJson(obs::Registry::Global().TakeSnapshot());
  json += "}";
  std::fprintf(out, "%s\n", json.c_str());
}

// `service` mode: a sharded TimerService traced through its own relay
// channels, drained live — no simulated OS involved. Deterministic
// single-threaded driver (the TSan tests cover the concurrent case).
void DriveService(RelayChannelSet* channels, RelayDrainer* drainer,
                  SimDuration duration, uint64_t seed, const std::string& queue) {
  TimerService::Options options;
  options.queue = queue;
  options.shards = 4;
  options.stats_label = "tempotop";
  options.trace = channels;
  TimerService service(options);
  uint64_t state = seed * 0x9e3779b97f4a7c15ULL + 1;
  auto next = [&state] {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  std::vector<TimerHandle> handles;
  for (SimTime now = 0; now < duration; now += 10 * kMillisecond) {
    service.SetTraceTime(now);
    for (int i = 0; i < 20; ++i) {
      const SimTime expiry = now + kMillisecond * (1 + next() % 5000);
      handles.push_back(service.ScheduleOn(next() % 4, expiry, [](TimerHandle) {}));
    }
    // Cancel ~70% soon after arming: the paper's insurance idiom.
    while (handles.size() > 6) {
      const TimerHandle h = handles.front();
      handles.erase(handles.begin());
      if (next() % 10 < 7) {
        service.Cancel(h);
      }
    }
    service.AdvanceAll(now);
    drainer->Poll();
  }
  service.PublishStats();
}

// --- fleet (cluster) mode ---

// Renders the registry once and serves it over a real HTTP /metrics
// endpoint, then scrapes it back with the built-in client and re-parses
// the exposition text — the curl-equivalent round trip, as an assertion.
int SelfScrape() {
  const std::string rendered =
      obs::RenderPrometheus(obs::Registry::Global().TakeSnapshot());
  obs::ScrapeServer server([&rendered] { return rendered; });
  std::string error;
  if (!server.Start(&error)) {
    std::fprintf(stderr, "serve-metrics FAILED: %s\n", error.c_str());
    return 1;
  }
  int status = 0;
  std::string body;
  const bool ok = obs::HttpGet("127.0.0.1", server.port(), "/metrics", &status,
                               &body, &error);
  server.Stop();
  if (!ok || status != 200) {
    std::fprintf(stderr, "serve-metrics FAILED: %s (status %d)\n",
                 error.c_str(), status);
    return 1;
  }
  std::vector<obs::PromSample> samples;
  if (!obs::ParsePrometheusText(body, &samples, &error)) {
    std::fprintf(stderr, "serve-metrics FAILED: scrape did not round-trip: %s\n",
                 error.c_str());
    return 1;
  }
  std::fprintf(stdout, "scrape: GET 127.0.0.1:%u/metrics -> %zu bytes, %zu samples\n",
               server.port(), body.size(), samples.size());
  return 0;
}

void PrintFleetSeries(std::FILE* out, const char* title,
                      const std::vector<fleet::FleetSeries>& series) {
  if (series.empty()) {
    return;
  }
  std::fprintf(out, "%s\n", title);
  std::fprintf(out, "  %-20s %6s %12s %12s %10s %9s %7s %10s\n", "label", "hosts",
               "sets", "rate/s", "peak/s", "bursting", "bursts", "burstpeak");
  for (const fleet::FleetSeries& s : series) {
    std::fprintf(out, "  %-20s %6" PRIu64 " %12" PRIu64 " %12.1f %10.1f %9" PRIu64
                      " %7" PRIu64 " %10.1f\n",
                 s.label.c_str(), s.hosts, s.sets, s.rate_sum, s.peak_rate,
                 s.hosts_bursting, s.bursts, s.burst_peak_rate);
  }
}

// One glyph per host: '*' bursting, '!' stale, 'x' lossy, '.' quiet.
char HostGlyph(const fleet::FleetHostStatus& h) {
  if (!h.clean) {
    return 'x';
  }
  if (h.stale) {
    return '!';
  }
  return h.burst_active ? '*' : '.';
}

void PrintFleetText(std::FILE* out, const fleet::FleetView& view) {
  std::fprintf(out,
               "tempotop --cluster @ %.1fs  hosts %" PRIu64 " (%" PRIu64
               " live, %" PRIu64 " stale, %" PRIu64 " closed)  frames %" PRIu64
               "  records %" PRIu64 "\n",
               ToSeconds(view.fleet_now), view.hosts_total, view.hosts_live,
               view.hosts_stale, view.hosts_closed, view.frames_total,
               view.records_total);
  if (view.hosts_reporting_slack > 0) {
    const fleet::SlackDigest& d = view.slack;
    std::fprintf(out,
                 "fleet slack: %" PRIu64 " fired spans on %" PRIu64
                 " hosts  p50 %s  p99 %s  max %s  (canceled %" PRIu64
                 ", early %" PRIu64 ", open %" PRIu64 ")\n",
                 d.slack.count, view.hosts_reporting_slack,
                 FormatDistance(d.slack.QuantileNs(0.50)).c_str(),
                 FormatDistance(d.slack.QuantileNs(0.99)).c_str(),
                 FormatDistance(d.slack.max).c_str(),
                 d.canceled, d.early, d.open);
  }
  PrintFleetSeries(out, "processes:", view.processes);
  PrintFleetSeries(out, "origins:", view.origins);
  if (!view.patterns.empty()) {
    std::fprintf(out, "patterns:");
    for (const auto& [name, count] : view.patterns) {
      std::fprintf(out, " %s=%" PRIu64, name.c_str(), count);
    }
    std::fprintf(out, "\n");
  }
  std::fprintf(out, "burst map (*=burst !=stale x=lossy):\n");
  for (size_t i = 0; i < view.hosts.size(); i += 64) {
    std::fprintf(out, "  ");
    for (size_t j = i; j < std::min(view.hosts.size(), i + 64); ++j) {
      std::fputc(HostGlyph(view.hosts[j]), out);
    }
    std::fputc('\n', out);
  }
  // The hosts an operator has to chase: stale, lossy or dirty-closed.
  size_t shown = 0;
  for (const fleet::FleetHostStatus& h : view.hosts) {
    if (h.clean && !h.stale) {
      continue;
    }
    if (shown == 0) {
      std::fprintf(out, "lagging/lossy hosts:\n");
    }
    if (++shown > 10) {
      std::fprintf(out, "  ...\n");
      break;
    }
    std::fprintf(out,
                 "  %-16s %s age=%.1fs seq=%" PRIu64 " gaps=%" PRIu64
                 " dup=%" PRIu64 " relay_dropped=%" PRIu64 "\n",
                 h.host.c_str(), h.stale ? "STALE" : "LOSSY", ToSeconds(h.age),
                 h.sequence, h.sequence_gaps, h.duplicates, h.relay_dropped);
  }
  for (const fleet::FleetSourceStatus& s : view.sources) {
    std::fprintf(out, "source %s: frames=%" PRIu64 " decode_errors=%" PRIu64 "%s%s\n",
                 s.source.c_str(), s.frames, s.decode_errors,
                 s.last_error.empty() ? "" : " last_error=",
                 s.last_error.c_str());
  }
  std::fprintf(out,
               "loss: decode_errors=%" PRIu64 " sequence_gaps=%" PRIu64
               " duplicates=%" PRIu64 " dirty_closes=%" PRIu64
               " relay_dropped=%" PRIu64 " -> %s\n",
               view.decode_errors_total, view.sequence_gaps_total,
               view.duplicates_total, view.dirty_closes_total,
               view.relay_dropped_total, view.clean() ? "clean" : "LOSSY");
}

void PrintFleetJson(std::FILE* out, const fleet::FleetView& view) {
  std::string json = "{";
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "\"fleet_now_s\":%.3f,\"hosts_total\":%" PRIu64
                ",\"hosts_live\":%" PRIu64 ",\"hosts_stale\":%" PRIu64
                ",\"hosts_closed\":%" PRIu64 ",\"frames\":%" PRIu64
                ",\"records\":%" PRIu64 ",\"clean\":%s,",
                ToSeconds(view.fleet_now), view.hosts_total, view.hosts_live,
                view.hosts_stale, view.hosts_closed, view.frames_total,
                view.records_total, view.clean() ? "true" : "false");
  json += buf;
  auto series_json = [&](const char* key, const std::vector<fleet::FleetSeries>& list) {
    json += std::string("\"") + key + "\":[";
    for (size_t i = 0; i < list.size(); ++i) {
      const fleet::FleetSeries& s = list[i];
      if (i > 0) {
        json += ",";
      }
      std::snprintf(buf, sizeof(buf),
                    "{\"label\":\"%s\",\"hosts\":%" PRIu64 ",\"sets\":%" PRIu64
                    ",\"rate\":%.3f,\"peak_rate\":%.3f,\"hosts_bursting\":%" PRIu64
                    ",\"bursts\":%" PRIu64 ",\"burst_peak_rate\":%.3f}",
                    obs::JsonEscape(s.label).c_str(), s.hosts, s.sets, s.rate_sum,
                    s.peak_rate, s.hosts_bursting, s.bursts, s.burst_peak_rate);
      json += buf;
    }
    json += "]";
  };
  std::snprintf(buf, sizeof(buf),
                "\"slack\":{\"hosts\":%" PRIu64 ",\"fired\":%" PRIu64
                ",\"canceled\":%" PRIu64 ",\"early\":%" PRIu64 ",\"open\":%" PRIu64
                ",\"p50_ns\":%.0f,\"p99_ns\":%.0f,\"max_ns\":%" PRIu64 "},",
                view.hosts_reporting_slack, view.slack.slack.count,
                view.slack.canceled, view.slack.early, view.slack.open,
                view.slack.slack.Quantile(0.50), view.slack.slack.Quantile(0.99),
                view.slack.slack.max);
  json += buf;
  series_json("processes", view.processes);
  json += ",";
  series_json("origins", view.origins);
  json += ",\"patterns\":{";
  for (size_t i = 0; i < view.patterns.size(); ++i) {
    if (i > 0) {
      json += ",";
    }
    std::snprintf(buf, sizeof(buf), "\"%s\":%" PRIu64,
                  obs::JsonEscape(view.patterns[i].first).c_str(),
                  view.patterns[i].second);
    json += buf;
  }
  std::snprintf(buf, sizeof(buf),
                "},\"loss\":{\"decode_errors\":%" PRIu64 ",\"sequence_gaps\":%" PRIu64
                ",\"duplicates\":%" PRIu64 ",\"dirty_closes\":%" PRIu64
                ",\"relay_dropped\":%" PRIu64 "},\"burst_map\":\"",
                view.decode_errors_total, view.sequence_gaps_total,
                view.duplicates_total, view.dirty_closes_total,
                view.relay_dropped_total);
  json += buf;
  for (const fleet::FleetHostStatus& h : view.hosts) {
    json += HostGlyph(h);
  }
  json += "\",\"metrics\":";
  json += obs::RenderJson(obs::Registry::Global().TakeSnapshot());
  json += "}";
  std::fprintf(out, "%s\n", json.c_str());
}

int RunCluster(const tools::ParsedArgs& args, tools::OutputFormat format) {
  const size_t hosts = static_cast<size_t>(args.UintValue("cluster", 4));
  if (hosts == 0) {
    std::fprintf(stderr, "error: --cluster needs at least one host\n");
    return 2;
  }
  const std::string transport = args.Value("transport", 0, "pipe");
  if (transport != "pipe" && transport != "tcp") {
    std::fprintf(stderr, "error: unknown transport %s\n", transport.c_str());
    return 2;
  }
  const size_t top_k = static_cast<size_t>(args.UintValue("topk", 10));

  fleet::FleetOptions fleet_options;
  fleet_options.stale_after = FromSeconds(args.TimeValue("stale", 3.0, kSecond));

  fleet::FleetRunOptions run;
  run.hosts = hosts;
  run.duration = FromSeconds(args.TimeValue("fleet-seconds", 8.0, kSecond));
  run.publish_period = FromSeconds(args.TimeValue("publish", 0.5, kSecond));
  run.seed = args.UintValue("seed", 2008);
  run.threads = static_cast<size_t>(args.UintValue("fleet-threads", 0));
  if (run.duration <= 0 || run.publish_period <= 0) {
    std::fprintf(stderr, "error: --fleet-seconds and --publish must be positive\n");
    return 2;
  }

  // Both transports end in the same aggregator; only the byte path and the
  // locking differ (the pipe hub drains on this thread, TCP on its own).
  std::unique_ptr<fleet::FleetAggregator> pipe_aggregator;
  std::unique_ptr<fleet::FleetCollector> pipe_collector;
  std::unique_ptr<InProcessPipeHub> hub;
  std::unique_ptr<fleet::FleetTcpServer> server;
  if (transport == "pipe") {
    pipe_aggregator = std::make_unique<fleet::FleetAggregator>(fleet_options);
    pipe_collector = std::make_unique<fleet::FleetCollector>(pipe_aggregator.get());
    hub = std::make_unique<InProcessPipeHub>(pipe_collector->Handler());
    run.connect = [&hub](const std::string& host) { return hub->Connect(host); };
    run.after_round = [&hub](SimTime) { hub->Drain(); };
  } else {
    server = std::make_unique<fleet::FleetTcpServer>(fleet_options);
    std::string error;
    if (!server->Start(&error)) {
      std::fprintf(stderr, "error: fleet server: %s\n", error.c_str());
      return 1;
    }
    const uint16_t port = server->port();
    run.connect = [port](const std::string& host) {
      std::string connect_error;
      auto sink = ConnectTcpStream("127.0.0.1", port, &connect_error);
      if (sink == nullptr) {
        std::fprintf(stderr, "error: %s: %s\n", host.c_str(), connect_error.c_str());
      }
      return sink;
    };
  }

  const fleet::FleetRunResult result = fleet::RunFleet(run);
  fleet::FleetView view;
  uint64_t burst_hosts = 0;
  const std::string burst_label = args.Value("check-fleet-burst", 0);
  const double burst_rate = args.DoubleValue("check-fleet-burst", 0.0, 1);
  if (hub != nullptr) {
    hub->Drain();  // deliver the final frames and closes
    pipe_aggregator->SyncObs();
    view = pipe_aggregator->TakeView(top_k);
    burst_hosts = pipe_aggregator->HostsWithBurst(burst_label, burst_rate);
  } else {
    server->Stop();  // drains every socket, reports every close
    server->SyncObs();
    view = server->View(top_k);
    burst_hosts = server->HostsWithBurst(burst_label, burst_rate);
  }

  if (format == tools::OutputFormat::kJson) {
    PrintFleetJson(stdout, view);
  } else {
    PrintFleetText(stdout, view);
  }

  int rc = 0;
  if (args.Has("check-hosts")) {
    const uint64_t want = args.UintValue("check-hosts", 0);
    if (view.hosts_total != want || view.hosts_live != want) {
      std::fprintf(stderr,
                   "check-hosts FAILED: want %" PRIu64 " live hosts, have %" PRIu64
                   " total / %" PRIu64 " live\n",
                   want, view.hosts_total, view.hosts_live);
      rc = 1;
    }
  }
  if (args.Has("check-fleet-burst")) {
    const double fraction = args.DoubleValue("check-fleet-burst", 0.0, 2);
    const double need = fraction * static_cast<double>(view.hosts_total);
    if (static_cast<double>(burst_hosts) < need) {
      std::fprintf(stderr,
                   "check-fleet-burst FAILED: %s >= %.0f sets/s on %" PRIu64
                   " hosts, need %.1f (%.0f%% of %" PRIu64 ")\n",
                   burst_label.c_str(), burst_rate, burst_hosts, need,
                   fraction * 100.0, view.hosts_total);
      rc = 1;
    }
  }
  if (args.Has("check-clean") && !view.clean()) {
    std::fprintf(stderr,
                 "check-clean FAILED: decode_errors=%" PRIu64 " sequence_gaps=%" PRIu64
                 " duplicates=%" PRIu64 " dirty_closes=%" PRIu64
                 " relay_dropped=%" PRIu64 "\n",
                 view.decode_errors_total, view.sequence_gaps_total,
                 view.duplicates_total, view.dirty_closes_total,
                 view.relay_dropped_total);
    rc = 1;
  }
  if (args.Has("serve-metrics") && SelfScrape() != 0) {
    rc = 1;
  }
  (void)result;
  return rc;
}

}  // namespace
}  // namespace tempo

int main(int argc, char** argv) {
  using namespace tempo;
  static const tools::FlagSpec kFlags[] = {
      {"minutes", 1, "M", "simulated duration (default 2)"},
      {"seed", 1, "S", "workload random seed (default 2008)"},
      {"window", 1, "SECONDS", "rate window (default 1.0)"},
      {"topk", 1, "K", "series shown per table (0 = all; default 10)"},
      {"refresh", 1, "SECONDS", "simulated time between live redraws (default 30)"},
      {"once", 0, "", "no live redraws; print one final view"},
      {"format", 1, "text|json", "final view format (default text)"},
      {"burst-threshold", 1, "RATE", "sets/s that starts a burst (default 5000)"},
      {"burst-clear", 1, "RATE", "sets/s that ends a burst (default 2500)"},
      {"check-burst", 2, "LABEL MIN", "exit 1 unless LABEL burst-peaked >= MIN sets/s"},
      {"check-rate", 3, "LABEL LO HI", "exit 1 unless LABEL mean rate is in [LO, HI]"},
      {"check-slack", 2, "P99MS MINSPANS",
       "exit 1 unless slack p99 <= P99MS ms over >= MINSPANS fired spans"},
      {"serve-metrics", 0, "", "serve /metrics over HTTP and self-scrape it"},
      {"cluster", 1, "HOSTS",
       "fleet mode: simulate HOSTS desktops on threads, aggregate (wall cycles)"},
      {"fleet-seconds", 1, "S", "fleet mode: simulated run length (default 8)"},
      {"publish", 1, "S", "fleet mode: summary publish period (default 0.5)"},
      {"stale", 1, "S", "fleet mode: host staleness threshold (default 3)"},
      {"fleet-threads", 1, "T", "fleet mode: worker threads (0 = auto)"},
      {"transport", 1, "pipe|tcp", "fleet mode: summary transport (default pipe)"},
      {"check-hosts", 1, "N", "exit 1 unless the aggregator saw N live hosts"},
      {"check-fleet-burst", 3, "LABEL RATE FRAC",
       "exit 1 unless LABEL burst >= RATE on FRAC of hosts"},
      {"check-clean", 0, "", "exit 1 if any summary/record was lost"},
      tools::QueueFlag(),
  };
  const tools::ParsedArgs args = tools::ParseArgs(argc, argv, kFlags);
  const bool cluster = args.ok() && args.Has("cluster");
  if (!args.ok() || args.positionals().size() != (cluster ? 0 : 1)) {
    if (!args.ok()) {
      std::fprintf(stderr, "error: %s\n", args.error().c_str());
    }
    tools::PrintUsage(stderr, argv[0], "<workload> | --cluster HOSTS", kFlags,
                      WorkloadUsage("", ", service").c_str());
    return 2;
  }
  tools::OutputFormat format = tools::OutputFormat::kText;
  if (!tools::ParseFormatName(args.Value("format", 0, "text"), &format)) {
    std::fprintf(stderr, "error: unknown format %s\n",
                 args.Value("format").c_str());
    return 2;
  }
  if (cluster) {
    return RunCluster(args, format);
  }
  obs::SetProbeClock(&tools::VirtualCycleClock);
  const std::string& which = args.positionals()[0];
  const std::string queue = tools::ResolveQueueName(args, "hierarchical_wheel");
  if (queue.empty()) {
    return 2;
  }
  const double minutes = args.TimeValue("minutes", 2.0, kMinute, 0, 0.0);
  const uint64_t seed = args.UintValue("seed", 2008);
  const double window_s = args.TimeValue("window", 1.0, kSecond);
  const size_t top_k = static_cast<size_t>(args.UintValue("topk", 10));
  const double refresh_s = args.TimeValue("refresh", 30.0, kSecond);
  const bool once = args.Has("once");
  if (FromSeconds(window_s) <= 0) {
    std::fprintf(stderr, "error: --window must be positive\n");
    return 2;
  }
  // The live ring keeps one slot per window of the run plus kRingSlack, so
  // a small window over a long run would ask for gigabytes.
  const double most_windows = static_cast<double>(kMaxRingWindows - kRingSlack);
  if (minutes * 60.0 / window_s > most_windows) {
    std::fprintf(stderr,
                 "error: --window: '%s' is out of range for --minutes %g (min %g: the live "
                 "ring holds at most %zu windows)\n",
                 args.Value("window", 0, "1").c_str(), minutes, minutes * 60.0 / most_windows,
                 kMaxRingWindows);
    return 2;
  }

  live::BurstThresholds thresholds;
  thresholds.threshold = args.DoubleValue("burst-threshold", thresholds.threshold);
  thresholds.clear = args.DoubleValue("burst-clear", thresholds.clear);

  RelayChannelSet channels;
  std::unique_ptr<live::LiveAnalyzer> analyzer;
  std::unique_ptr<live::SlackTracker> slack;
  live::PatternTracker patterns;
  std::unique_ptr<RelayDrainer> drainer;
  LiveTapOptions tap;
  tap.channels = &channels;

  auto ensure_analyzer = [&](const RateGrouping& grouping,
                             const CallsiteRegistry* callsites) {
    if (analyzer != nullptr) {
      return;
    }
    live::LiveOptions live_options;
    live_options.window = FromSeconds(window_s);
    live_options.grouping = grouping;
    live_options.callsites = callsites;
    live_options.burst = thresholds;
    // Every window of the run; ~3 rings × series.
    live_options.ring_windows =
        static_cast<size_t>(minutes * 60.0 / window_s) + kRingSlack;
    analyzer = std::make_unique<live::LiveAnalyzer>(live_options);
    slack = std::make_unique<live::SlackTracker>();
    drainer = std::make_unique<RelayDrainer>(
        &channels, [&a = *analyzer, &s = *slack, &p = patterns](const TraceRecord& r) {
          a.Ingest(r);
          s.Ingest(r);
          p.Ingest(r);
        });
  };

  // The latency pane: the same report body the offline LatencyPass renders,
  // fed from the live fold.
  auto latency_pane = [&]() {
    std::map<Pid, std::string> names;
    if (tap.processes != nullptr) {
      for (const Process& p : tap.processes->processes()) {
        if (p.pid != kKernelPid) {
          names[p.pid] = p.name;
        }
      }
    }
    return RenderLatencyReport(slack->state(), tap.callsites, names, 5);
  };

  SimTime next_redraw = FromSeconds(refresh_s);
  tap.poll = [&] {
    // First poll: every process is registered by now, so the per-process
    // grouping can be built (the workload filled the back-pointers).
    ensure_analyzer(GroupingFrom(*tap.processes), tap.callsites);
    drainer->Poll();
    if (!once && analyzer->now() >= next_redraw) {
      live::LiveSnapshot snap = analyzer->TakeSnapshot(top_k);
      PrintText(stdout, which, snap, patterns, &channels, latency_pane());
      std::fprintf(stdout, "\n");
      next_redraw = analyzer->now() + FromSeconds(refresh_s);
    }
  };

  WorkloadOptions options;
  options.duration = FromSeconds(minutes * 60.0);
  options.seed = seed;
  options.live = &tap;

  TraceRun run;  // keeps the sim/kernel alive until the final snapshot
  if (which == "service") {
    ensure_analyzer(RateGrouping{}, nullptr);
    DriveService(&channels, drainer.get(), options.duration, seed, queue);
  } else if (const WorkloadEntry* workload = FindWorkload(which)) {
    run = workload->run(options);
  } else {
    std::fprintf(stderr, "error: unknown workload %s\n", which.c_str());
    tools::PrintUsage(stderr, argv[0], "<workload>", kFlags,
                      WorkloadUsage("", ", service").c_str());
    return 2;
  }
  if (analyzer == nullptr) {
    // Degenerate run (shorter than one poll period): drain what exists.
    ensure_analyzer(tap.processes != nullptr ? GroupingFrom(*tap.processes)
                                             : RateGrouping{},
                    tap.callsites);
  }
  channels.CloseAll();
  drainer->Finish();
  analyzer->SyncObs();
  slack->SyncObs();
  patterns.SyncObs();

  const live::LiveSnapshot snap = analyzer->TakeSnapshot(top_k);
  if (format == tools::OutputFormat::kJson) {
    PrintJson(stdout, which, snap, patterns, &channels, slack->state());
  } else {
    PrintText(stdout, which, snap, patterns, &channels, latency_pane());
    std::fputs("\nmetrics:\n", stdout);
    std::fputs(obs::RenderText(obs::Registry::Global().TakeSnapshot()).c_str(),
               stdout);
  }

  int rc = 0;
  auto find_series = [&snap](const std::string& label) -> const live::LiveSeriesStats* {
    for (const auto& s : snap.processes) {
      if (s.label == label) {
        return &s;
      }
    }
    return nullptr;
  };
  if (args.Has("check-burst")) {
    const std::string label = args.Value("check-burst", 0);
    const double min_rate = args.DoubleValue("check-burst", 0.0, 1);
    const live::LiveSeriesStats* s = find_series(label);
    if (s == nullptr || s->bursts == 0 || s->burst_peak_rate < min_rate) {
      std::fprintf(stderr,
                   "check-burst FAILED: %s %s (want a burst >= %.0f sets/s)\n",
                   label.c_str(),
                   s == nullptr ? "has no series"
                                : s->bursts == 0 ? "never burst" : "burst too low",
                   min_rate);
      if (s != nullptr) {
        std::fprintf(stderr, "  bursts=%" PRIu64 " burst_peak_rate=%.1f\n",
                     s->bursts, s->burst_peak_rate);
      }
      rc = 1;
    }
  }
  if (args.Has("check-rate")) {
    const std::string label = args.Value("check-rate", 0);
    const double lo = args.DoubleValue("check-rate", 0.0, 1);
    const double hi = args.DoubleValue("check-rate", 0.0, 2);
    const live::LiveSeriesStats* s = find_series(label);
    if (s == nullptr || s->mean_rate < lo || s->mean_rate > hi) {
      std::fprintf(stderr,
                   "check-rate FAILED: %s mean %.1f sets/s not in [%.1f, %.1f]\n",
                   label.c_str(), s == nullptr ? 0.0 : s->mean_rate, lo, hi);
      rc = 1;
    }
  }
  if (args.Has("check-slack")) {
    const double p99_max_ms = args.DoubleValue("check-slack", 0.0, 0);
    const uint64_t min_spans = args.UintValue("check-slack", 0, 1);
    const double p99_ms = ToMilliseconds(
        static_cast<SimDuration>(slack->state().total().Quantile(0.99)));
    if (slack->state().fired_spans() < min_spans || p99_ms > p99_max_ms) {
      std::fprintf(stderr,
                   "check-slack FAILED: %" PRIu64 " fired spans (need >= %" PRIu64
                   "), slack p99 %.3f ms (budget %.3f ms)\n",
                   slack->state().fired_spans(), min_spans, p99_ms, p99_max_ms);
      rc = 1;
    }
  }
  if (args.Has("serve-metrics") && SelfScrape() != 0) {
    rc = 1;
  }
  return rc;
}

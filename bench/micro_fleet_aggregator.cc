// micro_fleet_aggregator — per-host cost of fleet collection.
//
// Every summary a host publishes is encoded into a wire frame, decoded by
// the collector and merged into the fleet view. That pipeline is the whole
// marginal cost of watching one more host, so the honest unit is cycles
// per host-second of observed fleet time: frames-per-second times the
// encode+decode+ingest cost of one frame. This bench replays a fleet of
// hosts publishing realistic summaries (16 process series, 8 origins, the
// pattern mix, 2 relay channels, 2 exported metrics — what a tempotop
// desktop actually ships) through EncodeSummaryFrame -> FrameDecoder ->
// FleetAggregator::Ingest at a 500 ms publish period, and charges the
// whole round trip to the aggregating side.
//
// Gate: collection must cost at most kGateCyclesPerHostSecond cycles per
// host-second (documented in EXPERIMENTS.md; at this budget a single
// 3 GHz core aggregates a six-figure host fleet). Results go to
// BENCH_fleet.json.
//
// TEMPO_QUICK=1 / TEMPO_SMOKE=1 shrink the round count for CI; the gate
// still runs (it is a per-host-second number, not a throughput number). A
// sanitizer build reports it skipped (sanitizer_build.h).

#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench/sanitizer_build.h"
#include "src/fleet/aggregator.h"
#include "src/fleet/wire.h"
#include "src/obs/probe.h"
#include "src/sim/time.h"

namespace tempo {
namespace {

constexpr double kGateCyclesPerHostSecond = 150'000.0;
constexpr SimDuration kPublishPeriod = 500 * kMillisecond;

fleet::SeriesSummary MakeSeries(const std::string& label, uint64_t round,
                                uint64_t salt) {
  fleet::SeriesSummary s;
  s.label = label;
  s.sets = (round + 1) * (500 + salt * 37);
  s.expires = s.sets - salt;
  s.cancels = salt * 3;
  s.mean_rate = 1000.0 + static_cast<double>(salt);
  s.last_rate = 990.0 + static_cast<double>((round * 7 + salt) % 40);
  s.peak_rate = 7000.0;
  s.burst_active = (round + salt) % 16 == 0;
  s.bursts = round / 8;
  s.burst_peak_rate = s.bursts > 0 ? 6900.0 : 0.0;
  return s;
}

// The summary host `h` publishes in round `r`: cumulative totals, fresh
// clock, the series/pattern/channel population of a real desktop.
fleet::HostSummary MakeSummary(const std::string& host, uint64_t h, uint64_t r) {
  fleet::HostSummary summary;
  summary.host = host;
  summary.sequence = r + 1;
  summary.now = static_cast<SimTime>(r + 1) * kPublishPeriod;
  summary.window = kSecond;
  summary.records = (r + 1) * 12'000;
  summary.processes.reserve(16);
  for (uint64_t i = 0; i < 16; ++i) {
    summary.processes.push_back(MakeSeries("proc" + std::to_string(i), r, h + i));
  }
  summary.origins.reserve(8);
  for (uint64_t i = 0; i < 8; ++i) {
    summary.origins.push_back(MakeSeries("origin" + std::to_string(i), r, h + i));
  }
  summary.patterns = {{"periodic", 40 + r}, {"watchdog", 8}, {"oneshot", 3 + h % 5}};
  summary.classifier_tracked = 96;
  summary.classifier_evictions = r;
  summary.channels = {{host + "/kernel", (r + 1) * 8'000, 0},
                      {host + "/outlook", (r + 1) * 4'000, 0}};
  summary.metrics = {{"relay_accepted", static_cast<int64_t>((r + 1) * 12'000)},
                     {"drainer_emitted", static_cast<int64_t>((r + 1) * 12'000)}};
  return summary;
}

}  // namespace
}  // namespace tempo

int main() {
  using namespace tempo;
  const char* quick_env = std::getenv("TEMPO_QUICK");
  const char* smoke_env = std::getenv("TEMPO_SMOKE");
  const bool quick = (quick_env != nullptr && quick_env[0] == '1') ||
                     (smoke_env != nullptr && smoke_env[0] == '1');
  const uint64_t hosts = 64;
  const uint64_t rounds = quick ? 40 : 400;

  std::printf("micro_fleet_aggregator: %llu hosts x %llu publish rounds%s\n",
              static_cast<unsigned long long>(hosts),
              static_cast<unsigned long long>(rounds), quick ? " (quick)" : "");

  std::vector<std::string> names;
  names.reserve(hosts);
  for (uint64_t h = 0; h < hosts; ++h) {
    names.push_back("desktop-" + std::to_string(h));
  }

  fleet::FleetAggregator aggregator;
  // One decoder per host connection, as the collector keeps per source.
  std::vector<fleet::FrameDecoder> decoders(hosts);

  uint64_t frames = 0;
  uint64_t bytes = 0;
  bool lossless = true;
  const uint64_t begin = obs::WallCycleClock();
  for (uint64_t r = 0; r < rounds; ++r) {
    for (uint64_t h = 0; h < hosts; ++h) {
      const std::vector<uint8_t> frame =
          fleet::EncodeSummaryFrame(MakeSummary(names[h], h, r));
      bytes += frame.size();
      decoders[h].Feed(frame.data(), frame.size());
      fleet::HostSummary decoded;
      fleet::FleetReadError error;
      if (decoders[h].Next(&decoded, &error) != fleet::FrameDecoder::Status::kFrame) {
        lossless = false;
        continue;
      }
      aggregator.Ingest(decoded, names[h]);
      ++frames;
    }
  }
  const uint64_t cycles = obs::WallCycleClock() - begin;

  const double host_seconds = static_cast<double>(hosts) *
                              ToSeconds(static_cast<SimTime>(rounds) * kPublishPeriod);
  const double per_host_second = static_cast<double>(cycles) / host_seconds;
  const double per_frame = static_cast<double>(cycles) / static_cast<double>(frames);
  const fleet::FleetView view = aggregator.TakeView();

  std::printf("  %10llu frames, %.1f MiB on the wire (%.0f bytes/frame)\n",
              static_cast<unsigned long long>(frames),
              static_cast<double>(bytes) / (1024.0 * 1024.0),
              static_cast<double>(bytes) / static_cast<double>(frames));
  std::printf("  %10.0f cycles/frame (encode + decode + ingest)\n", per_frame);
  std::printf("  %10.0f cycles/host-second at a %.1fs publish period\n",
              per_host_second, ToSeconds(kPublishPeriod));
  std::printf("  aggregator: %llu hosts, %llu frames, clean=%s\n",
              static_cast<unsigned long long>(view.hosts_total),
              static_cast<unsigned long long>(view.frames_total),
              view.clean() ? "true" : "false");

  const bool sane = lossless && view.hosts_total == hosts &&
                    view.frames_total == hosts * rounds && view.clean();
  if (!sane) {
    std::fprintf(stderr, "error: collection path lost frames\n");
  }
  const std::string status =
      CycleGateStatus(sane, per_host_second <= kGateCyclesPerHostSecond);
  std::printf("aggregator gate (<=%.0f cycles/host-second): %s\n",
              kGateCyclesPerHostSecond, status.c_str());

  std::FILE* json = std::fopen("BENCH_fleet.json", "w");
  if (json != nullptr) {
    std::fprintf(json, "{\n");
    std::fprintf(json, "  \"bench\": \"micro_fleet_aggregator\",\n");
    std::fprintf(json, "  \"hosts\": %llu,\n",
                 static_cast<unsigned long long>(hosts));
    std::fprintf(json, "  \"rounds\": %llu,\n",
                 static_cast<unsigned long long>(rounds));
    std::fprintf(json, "  \"quick\": %s,\n", quick ? "true" : "false");
    std::fprintf(json, "  \"hardware_concurrency\": %u,\n",
                 std::thread::hardware_concurrency());
    std::fprintf(json, "  \"publish_period_s\": %.1f,\n", ToSeconds(kPublishPeriod));
    std::fprintf(json, "  \"bytes_per_frame\": %.0f,\n",
                 static_cast<double>(bytes) / static_cast<double>(frames));
    std::fprintf(json, "  \"cycles_per_frame\": %.0f,\n", per_frame);
    std::fprintf(json, "  \"cycles_per_host_second\": %.0f,\n", per_host_second);
    std::fprintf(json, "  \"gate\": {\"threshold\": %.0f, \"cycles_per_host_second\": "
                       "%.0f, \"status\": \"%s\"}\n",
                 kGateCyclesPerHostSecond, per_host_second, status.c_str());
    std::fprintf(json, "}\n");
    std::fclose(json);
    std::printf("wrote BENCH_fleet.json\n");
  }
  return status == "fail" ? 1 : 0;
}

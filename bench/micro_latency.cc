// micro_latency — per-record cost of the slack tracker on the relay drain
// path, with the live == offline identity proven inside the bench.
//
// The latency observatory taps the same drainer emit callback the live
// analyzer uses (tempotop dual-ingests both), so its cost is paid once per
// traced event on the consumer side. This bench replays a deterministic
// synthetic stream — arms carrying both the requested timeout and a
// post-rounding expiry, paired expiries, cancels and re-arms — through the
// drain path twice: once into a counting sink, once into a SlackTracker,
// and charges the difference to the tracker.
//
// Two checks:
//   identity — the tracker's fold must equal the offline SlackState fold
//     over the same stream (the tentpole's live == offline contract). This
//     is a correctness assert and runs at every size; a mismatch exits 1.
//   gate — the tracker must add at most kGateCyclesPerRecord cycles per
//     record. Cycle measurements on a small smoke stream are noise, so
//     TEMPO_QUICK/TEMPO_SMOKE runs mark the gate "skipped: smoke run" —
//     never "pass" — and only a full run can pass or fail it.
//
// Results go to BENCH_latency.json.

#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "src/analysis/latency.h"
#include "src/live/slack_tracker.h"
#include "src/obs/probe.h"
#include "src/trace/relay.h"

namespace tempo {
namespace {

constexpr double kGateCyclesPerRecord = 1500.0;

// Arms carry both the requested timeout and a (sometimes rounded-up)
// absolute expiry; closes are expiries, cancels and re-arms in realistic
// proportions, so every SlackState path is hot.
std::vector<TraceRecord> GenerateStream(size_t count) {
  uint64_t state = 2008 * 0x9e3779b97f4a7c15ULL + 0x2545F4914F6CDD1DULL;
  auto next = [&state] {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  std::vector<TraceRecord> records;
  records.reserve(count);
  SimTime now = 0;
  constexpr size_t kTimers = 4096;
  std::vector<bool> open(kTimers + 1, false);
  while (records.size() < count) {
    now += next() % (2 * kMillisecond);
    TraceRecord r;
    r.timestamp = now;
    r.timer = 1 + next() % kTimers;
    r.pid = static_cast<Pid>(next() % 8);
    r.callsite = static_cast<CallsiteId>(next() % 32);
    if (!open[r.timer] || next() % 2 == 0) {
      r.op = TimerOp::kSet;
      r.timeout = static_cast<SimDuration>(1 + next() % 500) * kMillisecond;
      r.expiry = now + r.timeout;
      if (next() % 3 == 0) {
        // Jiffy-style round-up: the deadline moves past the request.
        r.expiry += static_cast<SimDuration>(next() % (4 * kMillisecond));
        r.flags |= kFlagRounded;
      }
      if (next() % 8 == 0) {
        r.flags |= kFlagDeferrable;
      }
      open[r.timer] = true;
    } else if (next() % 4 == 0) {
      r.op = TimerOp::kCancel;
      open[r.timer] = false;
    } else {
      r.op = TimerOp::kExpire;
      open[r.timer] = false;
    }
    records.push_back(r);
  }
  return records;
}

// Drains `records` through a relay channel into `emit`, the way a real run
// reaches the tracker, and returns cycles per record for the whole drain
// path (harvest + merge + emit).
template <typename Emit>
double DrainCyclesPerRecord(const std::vector<TraceRecord>& records, Emit emit) {
  RelayChannelSet channels;
  RelayChannel* lane = channels.Register("bench/latency");
  RelayDrainer drainer(&channels, emit);
  const uint64_t begin = obs::WallCycleClock();
  size_t logged = 0;
  for (const TraceRecord& r : records) {
    if (!lane->TryLog(r)) {
      drainer.Poll();
      lane->TryLog(r);
    }
    if (++logged % 4096 == 0) {
      drainer.Poll();
    }
  }
  channels.CloseAll();
  drainer.Finish();
  const uint64_t cycles = obs::WallCycleClock() - begin;
  return static_cast<double>(cycles) / static_cast<double>(records.size());
}

}  // namespace
}  // namespace tempo

int main() {
  using namespace tempo;
  const char* quick_env = std::getenv("TEMPO_QUICK");
  const char* smoke_env = std::getenv("TEMPO_SMOKE");
  const bool quick = (quick_env != nullptr && quick_env[0] == '1') ||
                     (smoke_env != nullptr && smoke_env[0] == '1');
  const size_t record_count = quick ? 500'000 : 5'000'000;

  std::printf("micro_latency: %zu records%s\n", record_count, quick ? " (quick)" : "");
  const std::vector<TraceRecord> records = GenerateStream(record_count);

  // Baseline: the drain path with a do-nothing consumer.
  size_t sink_count = 0;
  const double base_cycles = DrainCyclesPerRecord(
      records, [&sink_count](const TraceRecord&) { ++sink_count; });

  // SlackTracker on the same stream, obs instruments live like tempotop's.
  live::SlackTracker tracker("bench");
  const double tracked_cycles = DrainCyclesPerRecord(
      records, [&tracker](const TraceRecord& r) { tracker.Ingest(r); });
  tracker.SyncObs();
  const double delta = tracked_cycles - base_cycles;

  // Identity: the live fold must equal the offline pass over the stream.
  SlackState offline;
  offline.Accumulate(std::span<const TraceRecord>(records.data(), records.size()));
  const bool identical = tracker.state() == offline;

  const SlackHist& total = tracker.state().total();
  std::printf("  drain only      %8.1f cycles/record (%zu records emitted)\n",
              base_cycles, sink_count);
  std::printf("  drain + slack   %8.1f cycles/record\n", tracked_cycles);
  std::printf("  slack tracker   %8.1f cycles/record added\n", delta);
  std::printf("  spans: %llu fired, %llu canceled, %llu re-armed; slack p50 %s p99 %s\n",
              static_cast<unsigned long long>(tracker.state().fired_spans()),
              static_cast<unsigned long long>(tracker.state().canceled_spans()),
              static_cast<unsigned long long>(tracker.state().rearmed_spans()),
              FormatDuration(static_cast<SimDuration>(total.Quantile(0.50))).c_str(),
              FormatDuration(static_cast<SimDuration>(total.Quantile(0.99))).c_str());
  std::printf("live == offline identity: %s\n", identical ? "pass" : "FAIL");
  if (!identical || sink_count != records.size()) {
    std::fprintf(stderr, "error: %s\n",
                 identical ? "drain path lost records" : "live fold diverged");
    return 1;
  }

  // Cycle gates are meaningless on a smoke-sized stream: mark skipped, not
  // passed, so a green smoke run can never masquerade as a bench result.
  const bool gate_pass = delta <= kGateCyclesPerRecord;
  const std::string gate_status =
      quick ? "skipped: smoke run" : (gate_pass ? "pass" : "fail");
  std::printf("overhead gate (<=%.0f cycles/record): %s\n", kGateCyclesPerRecord,
              gate_status.c_str());

  std::FILE* json = std::fopen("BENCH_latency.json", "w");
  if (json != nullptr) {
    std::fprintf(json, "{\n");
    std::fprintf(json, "  \"bench\": \"micro_latency\",\n");
    std::fprintf(json, "  \"records\": %zu,\n", record_count);
    std::fprintf(json, "  \"quick\": %s,\n", quick ? "true" : "false");
    std::fprintf(json, "  \"hardware_concurrency\": %u,\n",
                 std::thread::hardware_concurrency());
    std::fprintf(json, "  \"drain_cycles_per_record\": %.1f,\n", base_cycles);
    std::fprintf(json, "  \"tracked_cycles_per_record\": %.1f,\n", tracked_cycles);
    std::fprintf(json, "  \"tracker_cycles_per_record\": %.1f,\n", delta);
    std::fprintf(json, "  \"fired_spans\": %llu,\n",
                 static_cast<unsigned long long>(tracker.state().fired_spans()));
    std::fprintf(json, "  \"slack_p50_ns\": %.0f,\n", total.Quantile(0.50));
    std::fprintf(json, "  \"slack_p99_ns\": %.0f,\n", total.Quantile(0.99));
    std::fprintf(json, "  \"live_offline_identical\": %s,\n",
                 identical ? "true" : "false");
    std::fprintf(json, "  \"gate\": {\"threshold\": %.0f, \"added\": %.1f, "
                       "\"status\": \"%s\"}\n",
                 kGateCyclesPerRecord, delta, gate_status.c_str());
    std::fprintf(json, "}\n");
    std::fclose(json);
    std::printf("wrote BENCH_latency.json\n");
  }
  return quick || gate_pass ? 0 : 1;
}

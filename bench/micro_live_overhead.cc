// micro_live_overhead — per-record cost of the live analysis layer on the
// relay drain path.
//
// The live observatory (src/live) taps the drainer's emit callback, so its
// per-record cost is paid once per traced event, on the consumer side. The
// paper budgets 236 cycles for the *producer* side logging cost; the drain
// side has no paper number, but it must stay cheap enough that one
// consumer thread keeps up with every producer. This bench replays the
// same deterministic synthetic stream through the drain path twice — once
// into a sink that only counts records, once into the taps tempotop runs
// for rates and patterns: a LiveAnalyzer (rate rings + burst detector) and
// a PatternTracker at tempotop's capacity (the offline classify fold) —
// and charges the difference to the taps.
//
// Gate: the taps must add at most kGateCyclesPerRecord cycles per record
// (generous: the hot path is a few hash probes, a ring increment and one
// episode filed into the fold). Results go to BENCH_live.json.
//
// TEMPO_QUICK=1 / TEMPO_SMOKE=1 shrink the stream for CI; the gate still
// runs (it is a per-record number, not a throughput number). A sanitizer
// build reports it skipped (sanitizer_build.h).

#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench/sanitizer_build.h"
#include "src/analysis/rates.h"
#include "src/live/live_analyzer.h"
#include "src/live/pattern_tracker.h"
#include "src/obs/probe.h"
#include "src/trace/relay.h"

namespace tempo {
namespace {

constexpr double kGateCyclesPerRecord = 2000.0;

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
  constexpr size_t kTimers = 8192;  // one group each: the fold outgrows L2
  std::vector<bool> open(kTimers + 1, false);
  while (records.size() < count) {
    now += next() % (2 * kMillisecond);
    TraceRecord r;
    r.timestamp = now;
    r.timer = 1 + next() % kTimers;
    r.pid = static_cast<Pid>(next() % 8);  // 0=kernel, 7 user processes
    if (!open[r.timer]) {
      r.op = TimerOp::kSet;
      r.timeout = static_cast<SimDuration>(1 + next() % 500) * kMillisecond;
      open[r.timer] = true;
    } else {
      const uint64_t pick = next() % 4;
      if (pick == 0) {
        r.op = TimerOp::kCancel;
        open[r.timer] = false;
      } else if (pick == 1) {
        r.op = TimerOp::kExpire;
        open[r.timer] = false;
      } else {
        r.op = TimerOp::kSet;  // re-arm
        r.timeout = static_cast<SimDuration>(1 + next() % 500) * kMillisecond;
      }
    }
    records.push_back(r);
  }
  return records;
}

// Drains `records` through a relay channel into `emit`, the way a real run
// reaches the analyzer, and returns cycles per record for the whole drain
// path (harvest + merge + emit).
template <typename Emit>
double DrainCyclesPerRecord(const std::vector<TraceRecord>& records, Emit emit) {
  RelayChannelSet channels;
  RelayChannel* lane = channels.Register("bench/live");
  RelayDrainer drainer(&channels, emit);
  const uint64_t begin = obs::WallCycleClock();
  size_t logged = 0;
  for (const TraceRecord& r : records) {
    if (!lane->TryLog(r)) {
      // Ring full: drain in place (single-threaded bench, same work the
      // consumer thread would do).
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

  std::printf("micro_live_overhead: %zu records%s\n", record_count,
              quick ? " (quick)" : "");
  const std::vector<TraceRecord> records = GenerateStream(record_count);

  // Baseline: the drain path with a do-nothing consumer.
  size_t sink_count = 0;
  const double base_cycles = DrainCyclesPerRecord(
      records, [&sink_count](const TraceRecord&) { ++sink_count; });

  // The live analyzer, with a per-pid grouping like tempotop builds, and
  // the pattern tracker on the same stream.
  live::LiveOptions options;
  options.window = kSecond;
  options.ring_windows = 1 << 15;
  for (Pid pid = 1; pid < 8; ++pid) {
    options.grouping.pid_labels[pid] = "proc" + std::to_string(pid);
  }
  options.stats_label = "bench";
  live::LiveAnalyzer analyzer(options);
  live::PatternTracker patterns("bench");
  const double live_cycles =
      DrainCyclesPerRecord(records, [&analyzer, &patterns](const TraceRecord& r) {
        analyzer.Ingest(r);
        patterns.Ingest(r);
      });
  const double delta = live_cycles - base_cycles;

  std::printf("  drain only      %8.1f cycles/record (%zu records emitted)\n",
              base_cycles, sink_count);
  std::printf("  drain + live    %8.1f cycles/record\n", live_cycles);
  std::printf("  live taps       %8.1f cycles/record added\n", delta);
  std::printf("  patterns: %zu groups tracked, %llu evicted; %llu windows evicted\n",
              patterns.tracked(), static_cast<unsigned long long>(patterns.evictions()),
              static_cast<unsigned long long>(analyzer.windows_evicted()));

  const bool sane = analyzer.records_ingested() == records.size() &&
                    sink_count == records.size();
  if (!sane) {
    std::fprintf(stderr, "error: drain path lost records (%zu/%zu/%zu)\n",
                 sink_count, analyzer.records_ingested(), records.size());
  }
  const std::string status = CycleGateStatus(sane, delta <= kGateCyclesPerRecord);
  std::printf("overhead gate (<=%.0f cycles/record): %s\n", kGateCyclesPerRecord,
              status.c_str());

  std::FILE* json = std::fopen("BENCH_live.json", "w");
  if (json != nullptr) {
    std::fprintf(json, "{\n");
    std::fprintf(json, "  \"bench\": \"micro_live_overhead\",\n");
    std::fprintf(json, "  \"records\": %zu,\n", record_count);
    std::fprintf(json, "  \"quick\": %s,\n", quick ? "true" : "false");
    std::fprintf(json, "  \"hardware_concurrency\": %u,\n",
                 std::thread::hardware_concurrency());
    std::fprintf(json, "  \"drain_cycles_per_record\": %.1f,\n", base_cycles);
    std::fprintf(json, "  \"live_cycles_per_record\": %.1f,\n", live_cycles);
    std::fprintf(json, "  \"analyzer_cycles_per_record\": %.1f,\n", delta);
    std::fprintf(json, "  \"paper_producer_cycles_per_record\": 236,\n");
    std::fprintf(json, "  \"classifier_tracked\": %zu,\n", patterns.tracked());
    std::fprintf(json, "  \"classifier_evictions\": %llu,\n",
                 static_cast<unsigned long long>(patterns.evictions()));
    std::fprintf(json, "  \"gate\": {\"threshold\": %.0f, \"added\": %.1f, "
                       "\"status\": \"%s\"}\n",
                 kGateCyclesPerRecord, delta, status.c_str());
    std::fprintf(json, "}\n");
    std::fclose(json);
    std::printf("wrote BENCH_live.json\n");
  }
  return status == "fail" ? 1 : 0;
}

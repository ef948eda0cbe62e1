// micro_c10m — timer backends under million-connection load.
//
// Two parts, both feeding BENCH_c10m.json:
//
//   1. Queue churn. Every TimerQueue backend is bulk-loaded (ScheduleBatch)
//      to 1M and, memory permitting, 10M live timers, then churned with the
//      connection-timer op mix (reschedule-heavy, insurance cancels) and
//      drained by Advance. Reported per backend and population: cycles/op
//      for insert, churn and expire, plus bytes/timer from MemoryBytes().
//      Accounting is exact at every phase boundary (live count, fired
//      count, drain to zero) — a backend that leaks or double-fires fails
//      the gate, so the numbers can be trusted.
//
//   2. The C10M server scenario (src/net/server.h): a serial-vs-threaded
//      identity run, then the full million-connection proof — peak live
//      timers >= 2x connections, teardown drains the service to zero, and
//      the report fingerprint is deterministic in the seed.
//
// Gates: `gate_1m` (all backends complete the 1M churn with exact
// accounting) and `gate_server` must pass on any box that can run the
// bench at full size; `gate_10m` self-skips — never vacuously passes —
// when the projected footprint does not fit in available memory.
// TEMPO_QUICK / TEMPO_SMOKE shrink the populations and mark the full-size
// gates "skipped: ..." so a small run can never masquerade as a green
// full-size one.
//
// --proof runs only part 2 at full size (the c10m_million ctest); --queue
// selects the server backend (tools/common convention).

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "src/net/server.h"
#include "src/obs/probe.h"
#include "src/sim/random.h"
#include "src/timer/lawn.h"
#include "src/timer/queue.h"
#include "tools/common.h"

namespace tempo {
namespace {

// Timeout values cluster hard in the paper's traces (0.04 s delayed ACK,
// 0.204 s RTO floor, 3 s SYN-ACK, the 30 s default...). The churn draws
// from such a class mix with small jitter: realistic for every backend and
// exactly the regime the lawn's per-TTL FIFOs are designed for.
constexpr SimDuration kTimeoutClasses[] = {
    40 * kMillisecond,  204 * kMillisecond, 500 * kMillisecond, kSecond,
    3 * kSecond,        5 * kSecond,        30 * kSecond,       75 * kSecond,
};

SimTime DrawExpiry(Rng& rng, SimTime now) {
  const SimDuration base =
      kTimeoutClasses[rng.UniformInt(0, std::size(kTimeoutClasses) - 1)];
  return now + base + rng.UniformInt(0, 16) * kMillisecond;
}

struct ChurnResult {
  std::string queue;
  size_t population = 0;
  double insert_cycles_per_op = 0;
  double churn_cycles_per_op = 0;
  double expire_cycles_per_op = 0;
  double bytes_per_timer = 0;
  size_t ttl_buckets = 0;  // lawn only; 0 elsewhere
  bool accounting_ok = false;
};

// The connection op mix: 60% reschedule (keepalive/idle re-arm), 25%
// cancel+schedule (ACK kills the insurance timer, next segment re-arms),
// 15% advance a little (ticks interleave with ops in a real server).
ChurnResult RunChurn(const std::string& queue_name, size_t population, int run_id) {
  ChurnResult result;
  result.queue = queue_name;
  result.population = population;

  TimerQueueOptions options;
  options.name = queue_name;
  options.stats_label = queue_name + "-c10m" + std::to_string(run_id);
  auto queue = MakeTimerQueue(options);
  Rng rng(2008 + static_cast<uint64_t>(run_id));

  // --- bulk load via the batch entry point ---
  std::vector<TimerBatchEntry> entries(population);
  for (auto& entry : entries) {
    entry.expiry = DrawExpiry(rng, 0);
  }
  uint64_t t0 = obs::WallCycleClock();
  queue->ScheduleBatch(entries, [](TimerHandle) {});
  uint64_t t1 = obs::WallCycleClock();
  result.insert_cycles_per_op =
      static_cast<double>(t1 - t0) / static_cast<double>(population);

  bool ok = queue->Size() == population;
  result.bytes_per_timer = static_cast<double>(queue->MemoryBytes()) /
                           static_cast<double>(population);
  if (const auto* lawn = dynamic_cast<const LawnTimerQueue*>(queue.get())) {
    result.ttl_buckets = lawn->ttl_buckets();
  }

  // --- churn ---
  // The advance step is deliberately small (time crawls relative to the op
  // rate, as it does for a server handling millions of events per second);
  // a big step would turn the wheel backends' tick loops into the entire
  // benchmark.
  const size_t churn_ops = population / 4;
  SimTime now = 0;
  const SimTime advance_step = 50 * kMicrosecond;
  size_t fired = 0;
  size_t replaced = 0;  // dead victims revived by the ops below
  t0 = obs::WallCycleClock();
  for (size_t i = 0; i < churn_ops; ++i) {
    const size_t victim = static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(population) - 1));
    const double p = rng.NextDouble();
    const SimTime expiry = DrawExpiry(rng, now);
    if (p < 0.60) {
      if (queue->Reschedule(entries[victim].handle, expiry) == kInvalidTimerHandle) {
        // Fired during an advance step below; replace it to keep the
        // population roughly constant.
        entries[victim].handle = queue->Schedule(expiry, [](TimerHandle) {});
        ++replaced;
      }
    } else if (p < 0.85) {
      if (!queue->Cancel(entries[victim].handle)) {
        ++replaced;  // already fired; the fresh schedule below revives it
      }
      entries[victim].handle = queue->Schedule(expiry, [](TimerHandle) {});
    } else {
      now += advance_step;
      fired += queue->Advance(now);
    }
  }
  t1 = obs::WallCycleClock();
  result.churn_cycles_per_op =
      static_cast<double>(t1 - t0) / static_cast<double>(churn_ops);
  // Every fire removed one live timer; every revival added one back.
  ok = ok && queue->Size() + fired == population + replaced;

  // --- drain ---
  const size_t remaining = queue->Size();
  size_t drained = 0;
  t0 = obs::WallCycleClock();
  while (queue->Size() > 0) {
    now += kSecond;
    drained += queue->Advance(now);
  }
  t1 = obs::WallCycleClock();
  result.expire_cycles_per_op = remaining > 0
      ? static_cast<double>(t1 - t0) / static_cast<double>(remaining)
      : 0;
  ok = ok && drained == remaining && queue->Size() == 0 &&
       queue->NextExpiry() == kNeverTime;
  result.accounting_ok = ok;
  return result;
}

size_t AvailableMemoryBytes() {
  std::FILE* f = std::fopen("/proc/meminfo", "r");
  if (f == nullptr) {
    return 0;
  }
  char line[256];
  size_t kb = 0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::sscanf(line, "MemAvailable: %zu kB", &kb) == 1) {
      break;
    }
  }
  std::fclose(f);
  return kb * 1024;
}

struct ServerResult {
  C10MReport proof;
  uint64_t identity_fingerprint = 0;
  bool identity_ok = false;
  bool proof_ok = false;
  double wall_seconds = 0;
  std::string queue;
};

ServerResult RunServer(const std::string& queue_name, size_t connections) {
  ServerResult result;
  result.queue = queue_name;

  // Identity: serial and threaded lanes must produce bit-identical reports.
  C10MOptions identity_options;
  identity_options.queue = queue_name;
  identity_options.connections = std::max<size_t>(connections / 10, 1000);
  identity_options.lanes = 4;
  identity_options.seed = 2008;
  identity_options.duration = 500 * kMillisecond;
  identity_options.keepalive_interval = 300 * kMillisecond;
  identity_options.idle_timeout = kSecond;
  const C10MReport serial = C10MServer(identity_options).Run();
  const C10MReport threaded = C10MServer(identity_options).RunThreaded();
  result.identity_ok = serial == threaded;
  result.identity_fingerprint = serial.fingerprint;

  // Proof: full-size run; every connection holds 2+ live timers at peak
  // and teardown leaves nothing behind.
  C10MOptions options;
  options.queue = queue_name;
  options.connections = connections;
  options.lanes = 4;
  options.seed = 2008;
  options.duration = 300 * kMillisecond;
  options.event_rate = 0.01;
  const auto start = std::chrono::steady_clock::now();
  C10MServer server(options);
  result.proof = server.RunThreaded();
  result.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  const C10MReport& r = result.proof;
  result.proof_ok = r.peak_live_timers >= 2 * r.connections &&
                    r.teardown_canceled == r.teardown_collected &&
                    r.final_live_timers == 0;
  return result;
}

void PrintServerResult(const ServerResult& s) {
  const C10MReport& r = s.proof;
  std::printf("server (%s): %zu connections, %zu lanes, %llu ticks, %.1f s wall\n",
              s.queue.c_str(), r.connections, r.lanes,
              static_cast<unsigned long long>(r.ticks), s.wall_seconds);
  std::printf("  peak live timers   %llu (>= 2x connections: %s)\n",
              static_cast<unsigned long long>(r.peak_live_timers),
              r.peak_live_timers >= 2 * r.connections ? "yes" : "NO");
  std::printf("  sched/resched/cancel %llu / %llu / %llu\n",
              static_cast<unsigned long long>(r.timers_scheduled),
              static_cast<unsigned long long>(r.timers_rescheduled),
              static_cast<unsigned long long>(r.timers_canceled));
  std::printf("  fires: rto %llu  keepalive %llu  idle %llu  dack %llu "
              "(coalesced %llu, stale %llu)\n",
              static_cast<unsigned long long>(r.retransmits_fired),
              static_cast<unsigned long long>(r.keepalive_probes),
              static_cast<unsigned long long>(r.idle_closures),
              static_cast<unsigned long long>(r.delayed_acks_fired),
              static_cast<unsigned long long>(r.delayed_acks_coalesced),
              static_cast<unsigned long long>(r.stale_fires));
  std::printf("  teardown: collected %llu canceled %llu  final live %llu\n",
              static_cast<unsigned long long>(r.teardown_collected),
              static_cast<unsigned long long>(r.teardown_canceled),
              static_cast<unsigned long long>(r.final_live_timers));
  std::printf("  fingerprint %016llx   serial==threaded: %s\n",
              static_cast<unsigned long long>(r.fingerprint),
              s.identity_ok ? "yes" : "NO");
}

}  // namespace
}  // namespace tempo

int main(int argc, char** argv) {
  using namespace tempo;
  using tempo::tools::FlagSpec;

  const FlagSpec kFlags[] = {
      tools::QueueFlag(),
      {"proof", 0, "", "run only the full-size server proof (the c10m_million ctest)"},
      {"connections", 1, "N", "server connections for the proof (default 1000000)"},
  };
  const tools::ParsedArgs args = tools::ParseArgs(argc, argv, kFlags);
  if (!args.ok()) {
    std::fprintf(stderr, "error: %s\n", args.error().c_str());
    tools::PrintUsage(stderr, argv[0], "", kFlags);
    return 2;
  }
  const std::string queue = tools::ResolveQueueName(args, "hierarchical_wheel");
  if (queue.empty()) {
    return 2;
  }

  const char* smoke_env = std::getenv("TEMPO_SMOKE");
  const char* quick_env = std::getenv("TEMPO_QUICK");
  const bool smoke = smoke_env != nullptr && smoke_env[0] == '1';
  const bool quick = !smoke && quick_env != nullptr && quick_env[0] == '1';
  const char* mode = smoke ? "smoke" : quick ? "quick" : "full";

  // Population tiers. The small modes exercise identical code on smaller
  // sets; their full-size gates are marked skipped, never passed.
  const size_t base_population = smoke ? 20'000 : quick ? 100'000 : 1'000'000;
  const size_t big_population = 10'000'000;
  size_t server_connections = smoke ? 20'000 : quick ? 100'000 : 1'000'000;
  server_connections = args.UintValue("connections", server_connections);

  if (args.Has("proof")) {
    std::printf("=== c10m server proof (%s, %zu connections) ===\n", queue.c_str(),
                server_connections);
    const ServerResult s = RunServer(queue, server_connections);
    PrintServerResult(s);
    return s.identity_ok && s.proof_ok ? 0 : 1;
  }

  std::printf("==============================================================\n");
  std::printf("micro_c10m — timer backends at C10M populations (%s mode)\n", mode);
  std::printf("==============================================================\n\n");

  std::vector<ChurnResult> churn;
  int run_id = 0;
  bool base_ok = true;
  for (const std::string& name : TimerQueueNames()) {
    const ChurnResult r = RunChurn(name, base_population, run_id++);
    base_ok = base_ok && r.accounting_ok;
    std::printf("  %-20s %9zu timers  insert %7.1f  churn %7.1f  expire %7.1f "
                "cyc/op  %6.1f B/timer%s%s\n",
                r.queue.c_str(), r.population, r.insert_cycles_per_op,
                r.churn_cycles_per_op, r.expire_cycles_per_op, r.bytes_per_timer,
                r.ttl_buckets > 0
                    ? ("  ttl_buckets=" + std::to_string(r.ttl_buckets)).c_str()
                    : "",
                r.accounting_ok ? "" : "  ACCOUNTING MISMATCH");
    churn.push_back(r);
  }

  // 10M tier: project the footprint from the measured bytes/timer (plus
  // the transient batch-entry buffer) and skip honestly if it cannot fit.
  std::string gate_10m = "skipped: not a full run";
  if (!smoke && !quick) {
    double worst_bpt = 0;
    for (const ChurnResult& r : churn) {
      worst_bpt = std::max(worst_bpt, r.bytes_per_timer);
    }
    const size_t projected = static_cast<size_t>(
        worst_bpt * static_cast<double>(big_population) * 2.0 +
        static_cast<double>(big_population) * sizeof(TimerBatchEntry));
    const size_t available = AvailableMemoryBytes();
    if (available == 0) {
      gate_10m = "skipped: cannot read MemAvailable";
    } else if (projected > available) {
      char buf[128];
      std::snprintf(buf, sizeof buf,
                    "skipped: projected %zu MB > available %zu MB",
                    projected >> 20, available >> 20);
      gate_10m = buf;
    } else {
      std::printf("\n");
      bool big_ok = true;
      for (const std::string& name : TimerQueueNames()) {
        const ChurnResult r = RunChurn(name, big_population, run_id++);
        big_ok = big_ok && r.accounting_ok;
        std::printf("  %-20s %9zu timers  insert %7.1f  churn %7.1f  expire %7.1f "
                    "cyc/op  %6.1f B/timer%s%s\n",
                    r.queue.c_str(), r.population, r.insert_cycles_per_op,
                    r.churn_cycles_per_op, r.expire_cycles_per_op, r.bytes_per_timer,
                    r.ttl_buckets > 0
                        ? ("  ttl_buckets=" + std::to_string(r.ttl_buckets)).c_str()
                        : "",
                    r.accounting_ok ? "" : "  ACCOUNTING MISMATCH");
        churn.push_back(r);
      }
      gate_10m = big_ok ? "pass" : "fail";
    }
  }

  std::printf("\n");
  const ServerResult server = RunServer(queue, server_connections);
  PrintServerResult(server);

  const std::string gate_1m =
      smoke || quick ? std::string("skipped: ") + mode + " run"
                     : (base_ok ? "pass" : "fail");
  const std::string gate_server =
      (smoke || quick) && !args.Has("connections")
          ? std::string("skipped: ") + mode + " run"
          : (server.identity_ok && server.proof_ok ? "pass" : "fail");
  // Identity and accounting still gate the small modes: a smoke run that
  // leaks timers or diverges between serial and threaded must fail loudly.
  const bool small_ok = base_ok && server.identity_ok &&
                        server.proof.final_live_timers == 0;

  std::printf("\ngates: 1m=%s  10m=%s  server=%s\n", gate_1m.c_str(), gate_10m.c_str(),
              gate_server.c_str());

  FILE* out = std::fopen("BENCH_c10m.json", "w");
  if (out != nullptr) {
    std::fprintf(out, "{\n  \"experiment\": \"micro_c10m\",\n");
    std::fprintf(out, "  \"mode\": \"%s\",\n", mode);
    std::fprintf(out, "  \"hardware_concurrency\": %u,\n",
                 std::thread::hardware_concurrency());
    std::fprintf(out, "  \"churn\": [\n");
    for (size_t i = 0; i < churn.size(); ++i) {
      const ChurnResult& r = churn[i];
      std::fprintf(out,
                   "    {\"queue\": \"%s\", \"population\": %zu, "
                   "\"insert_cycles_per_op\": %.1f, \"churn_cycles_per_op\": %.1f, "
                   "\"expire_cycles_per_op\": %.1f, \"bytes_per_timer\": %.1f, "
                   "\"ttl_buckets\": %zu, \"accounting_ok\": %s}%s\n",
                   r.queue.c_str(), r.population, r.insert_cycles_per_op,
                   r.churn_cycles_per_op, r.expire_cycles_per_op, r.bytes_per_timer,
                   r.ttl_buckets, r.accounting_ok ? "true" : "false",
                   i + 1 < churn.size() ? "," : "");
    }
    std::fprintf(out, "  ],\n");
    const C10MReport& r = server.proof;
    std::fprintf(out,
                 "  \"server\": {\"queue\": \"%s\", \"connections\": %zu, "
                 "\"peak_live_timers\": %llu, \"timers_scheduled\": %llu, "
                 "\"timers_rescheduled\": %llu, \"timers_canceled\": %llu, "
                 "\"teardown_canceled\": %llu, \"final_live_timers\": %llu, "
                 "\"fingerprint\": \"%016llx\", \"identity_ok\": %s, "
                 "\"wall_seconds\": %.2f},\n",
                 server.queue.c_str(), r.connections,
                 static_cast<unsigned long long>(r.peak_live_timers),
                 static_cast<unsigned long long>(r.timers_scheduled),
                 static_cast<unsigned long long>(r.timers_rescheduled),
                 static_cast<unsigned long long>(r.timers_canceled),
                 static_cast<unsigned long long>(r.teardown_canceled),
                 static_cast<unsigned long long>(r.final_live_timers),
                 static_cast<unsigned long long>(r.fingerprint),
                 server.identity_ok ? "true" : "false", server.wall_seconds);
    std::fprintf(out, "  \"gate_1m\": {\"status\": \"%s\"},\n", gate_1m.c_str());
    std::fprintf(out, "  \"gate_10m\": {\"status\": \"%s\"},\n", gate_10m.c_str());
    std::fprintf(out, "  \"gate_server\": {\"status\": \"%s\"}\n", gate_server.c_str());
    std::fprintf(out, "}\n");
    std::fclose(out);
    std::printf("wrote BENCH_c10m.json\n");
  }

  const bool gates_ok = gate_1m != "fail" && gate_10m != "fail" &&
                        gate_server != "fail" && small_ok;
  return gates_ok ? 0 : 1;
}

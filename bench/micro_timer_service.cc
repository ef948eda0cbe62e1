// Timer-service scaling microbenchmarks.
//
// Two questions, both feeding BENCH_timer_service.json:
//
//   1. NextExpiry cost. The OS models call NextExpiry() on every
//      hardware-reprogram decision; the seed implementation answered with a
//      full O(slots x nodes) scan. At 10k and 66k pending timers (66k is
//      one c10m shard's population), each wheel reports three costs:
//        scan     the retained reference scan, NextExpiryScan();
//        cached   NextExpiry() while its cached minimum is still valid;
//        refresh  cancel the earliest timer, schedule a replacement after
//                 the latest, then NextExpiry(): the cancel invalidates the
//                 cache, so every read pays one refresh. Between batches of
//                 eight the wheel advances, untimed, to just before the
//                 earliest expiry, so the hand tracks the front as it does
//                 on a live wheel.
//      Gates (the bench exits non-zero if either fails): cached beats scan
//      by >= 10x on both wheels, and the hierarchical wheel's refresh costs
//      <= scan/10. The hashed wheel's refresh is still a slot scan, so it
//      is reported ungated.
//
//   2. Multi-producer set/cancel throughput. 1/2/4/8 producer threads x all
//      four queue implementations, each multi-thread configuration run
//      against a single global lock (shards=1) and against one shard per
//      thread — the sharding win is the ratio between the two.
//
// TEMPO_QUICK=1 shrinks the op counts for CI.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/sim/random.h"
#include "src/timer/hashed_wheel.h"
#include "src/timer/hierarchical_wheel.h"
#include "src/timer/queue.h"
#include "src/timer/timer_service.h"
#include "tools/common.h"

namespace tempo {
namespace {

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

// --- Part 1: NextExpiry cached vs reference scan -------------------------

struct NextExpiryResult {
  std::string queue;
  int population = 0;
  double scan_ns = 0;
  double cached_ns = 0;
  double speedup = 0;
  double refresh_ns = 0;
};

// The cached path gets a much larger iteration budget than the scan: it is
// too fast to time over the scan's loop count. The refresh loop runs as
// many iterations as the scan, so a refresh that is still a scan costs the
// same wall time as the scan loop. It cancels from the front, so without
// the Advance the front would outrun a frozen hand (2,000 iterations move
// it 20 s at 10k timers) and the loop would measure coarse level-2 slots
// that a running wheel cascades long before its minimum reaches them.
template <typename Wheel>
NextExpiryResult MeasureNextExpiry(const std::string& name, Wheel* wheel, int population,
                                   int scan_iters, int cached_iters) {
  Rng rng(42);
  std::deque<std::pair<SimTime, TimerHandle>> pending;  // by expiry
  for (int i = 0; i < population; ++i) {
    const SimTime expiry = rng.UniformInt(kMillisecond, 100 * kSecond);
    pending.emplace_back(expiry, wheel->Schedule(expiry, [](TimerHandle) {}));
  }
  std::sort(pending.begin(), pending.end());
  NextExpiryResult result;
  result.queue = name;
  result.population = population;
  SimTime sink = 0;
  auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < scan_iters; ++i) {
    sink ^= wheel->NextExpiryScan();
  }
  result.scan_ns = SecondsSince(start) * 1e9 / scan_iters;
  start = std::chrono::steady_clock::now();
  for (int i = 0; i < cached_iters; ++i) {
    sink ^= wheel->NextExpiry();
  }
  result.cached_ns = SecondsSince(start) * 1e9 / cached_iters;
  constexpr int kBatch = 8;
  double refresh_seconds = 0;
  for (int done = 0; done < scan_iters; done += kBatch) {
    wheel->Advance(pending.front().first - 1);  // fires nothing
    start = std::chrono::steady_clock::now();
    for (int i = 0; i < kBatch; ++i) {
      wheel->Cancel(pending.front().second);
      pending.pop_front();
      const SimTime later = pending.back().first + kMillisecond;
      pending.emplace_back(later, wheel->Schedule(later, [](TimerHandle) {}));
      sink ^= wheel->NextExpiry();
    }
    refresh_seconds += SecondsSince(start);
  }
  result.refresh_ns = refresh_seconds * 1e9 / scan_iters;
  if (sink == 42) {  // defeat dead-code elimination without volatile
    std::fprintf(stderr, "#");
  }
  result.speedup = result.cached_ns > 0 ? result.scan_ns / result.cached_ns : 0;
  return result;
}

// --- Part 2: multi-producer throughput -----------------------------------

struct ThroughputResult {
  std::string queue;
  int threads = 0;
  size_t shards = 0;
  uint64_t ops = 0;
  double seconds = 0;
  double mops_per_sec = 0;
  uint64_t contended_locks = 0;
  double cache_hit_rate = 0;
};

// Each producer churns schedule/cancel pairs on its home shard — the
// webserver insurance-timer pattern (arm a timeout, cancel it shortly
// after) that dominates the paper's traces.
ThroughputResult MeasureThroughput(const std::string& queue, int threads, size_t shards,
                                   int ops_per_thread, int run_id) {
  TimerService::Options options;
  options.queue = queue;
  options.shards = shards;
  options.stats_label =
      queue + "-bench" + std::to_string(run_id);  // instruments are per-run
  TimerService service(options);
  std::atomic<bool> go{false};
  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&service, &go, t, ops_per_thread] {
      while (!go.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
      Rng rng(static_cast<uint64_t>(t) + 1);
      std::vector<TimerHandle> window(64, kInvalidTimerHandle);
      for (int i = 0; i < ops_per_thread; ++i) {
        const size_t slot = static_cast<size_t>(i) % window.size();
        if (window[slot] != kInvalidTimerHandle) {
          service.Cancel(window[slot]);
        }
        window[slot] =
            service.ScheduleOn(static_cast<size_t>(t),
                               rng.UniformInt(kMillisecond, 10 * kSecond), [](TimerHandle) {});
      }
    });
  }
  const auto start = std::chrono::steady_clock::now();
  go.store(true, std::memory_order_release);
  for (auto& worker : workers) {
    worker.join();
  }
  ThroughputResult result;
  result.queue = queue;
  result.threads = threads;
  result.shards = service.shard_count();
  result.ops = service.set_count() + service.cancel_count();
  result.seconds = SecondsSince(start);
  result.mops_per_sec = static_cast<double>(result.ops) / result.seconds / 1e6;
  result.contended_locks = service.contended_locks();
  const double hits = static_cast<double>(service.deadline_cache_hits());
  const double misses = static_cast<double>(service.deadline_cache_misses());
  result.cache_hit_rate = hits + misses > 0 ? hits / (hits + misses) : 0;
  return result;
}

}  // namespace
}  // namespace tempo

int main(int argc, char** argv) {
  using namespace tempo;
  const tempo::tools::FlagSpec kFlags[] = {tools::QueueFlag()};
  const tools::ParsedArgs args = tools::ParseArgs(argc, argv, kFlags);
  if (!args.ok()) {
    std::fprintf(stderr, "error: %s\n", args.error().c_str());
    tools::PrintUsage(stderr, argv[0], "", kFlags);
    return 2;
  }
  std::vector<std::string> queues = TimerQueueNames();
  if (args.Has("queue")) {
    const std::string selected = tools::ResolveQueueName(args, "");
    if (selected.empty()) {
      return 2;
    }
    queues = {selected};
  }
  const char* quick_env = std::getenv("TEMPO_QUICK");
  const bool quick = quick_env != nullptr && quick_env[0] == '1';
  const int populations[] = {10000, 66000};
  const int scan_iters = quick ? 200 : 2000;
  const int cached_iters = quick ? 200000 : 2000000;
  const int ops_per_thread = quick ? 20000 : 100000;

  std::printf("==============================================================\n");
  std::printf("micro_timer_service — sharded TimerService scaling\n");
  std::printf("==============================================================\n\n");

  std::vector<NextExpiryResult> next_results;
  for (const int population : populations) {
    {
      HierarchicalWheelTimerQueue wheel(kMillisecond, "hier-bench-next");
      next_results.push_back(MeasureNextExpiry("hierarchical_wheel", &wheel, population,
                                               scan_iters, cached_iters));
    }
    {
      HashedWheelTimerQueue wheel(kMillisecond, 256, "hashed-bench-next");
      next_results.push_back(
          MeasureNextExpiry("hashed_wheel", &wheel, population, scan_iters, cached_iters));
    }
  }

  std::printf("NextExpiry (gates: cached >= 10x faster than scan; hierarchical_wheel "
              "refresh <= scan/10):\n");
  for (const auto& r : next_results) {
    std::printf("  %-20s %6d timers  scan %10.1f ns   refresh %10.1f ns   cached %6.2f ns   "
                "speedup %8.1fx\n",
                r.queue.c_str(), r.population, r.scan_ns, r.refresh_ns, r.cached_ns,
                r.speedup);
  }

  std::printf("\nset/cancel churn, %d ops/thread (schedule+cancel pairs):\n",
              ops_per_thread);
  std::printf("  %-20s %8s %7s %10s %12s %10s %9s\n", "queue", "threads", "shards",
              "Mops/s", "contended", "hit-rate", "seconds");
  std::vector<ThroughputResult> throughput;
  int run_id = 0;
  for (const std::string& queue : queues) {
    for (const int threads : {1, 2, 4, 8}) {
      std::vector<size_t> shard_configs = {1};
      if (threads > 1) {
        shard_configs.push_back(static_cast<size_t>(threads));
      }
      for (const size_t shards : shard_configs) {
        const auto r = MeasureThroughput(queue, threads, shards, ops_per_thread, run_id++);
        std::printf("  %-20s %8d %7zu %10.3f %12llu %10.3f %9.3f\n", r.queue.c_str(),
                    r.threads, r.shards, r.mops_per_sec,
                    static_cast<unsigned long long>(r.contended_locks), r.cache_hit_rate,
                    r.seconds);
        throughput.push_back(r);
      }
    }
  }

  constexpr double kSpeedupBound = 10.0;
  double min_speedup = next_results.empty() ? 0.0 : next_results.front().speedup;
  bool refresh_ok = true;
  for (const auto& r : next_results) {
    min_speedup = std::min(min_speedup, r.speedup);
    if (r.queue == "hierarchical_wheel" && r.refresh_ns * 10.0 > r.scan_ns) {
      refresh_ok = false;
    }
  }
  const bool speedup_ok = min_speedup >= kSpeedupBound;
  std::printf("\ncached NextExpiry >= %.0fx reference scan: %s\n", kSpeedupBound,
              speedup_ok ? "PASS" : "FAIL");
  std::printf("hierarchical_wheel refresh <= reference scan / 10: %s\n",
              refresh_ok ? "PASS" : "FAIL");

  FILE* out = std::fopen("BENCH_timer_service.json", "w");
  if (out != nullptr) {
    std::fprintf(out, "{\n  \"experiment\": \"micro_timer_service\",\n");
    std::fprintf(out, "  \"mode\": \"%s\",\n", quick ? "quick" : "full");
    std::fprintf(out, "  \"hardware_concurrency\": %u,\n",
                 std::thread::hardware_concurrency());
    std::fprintf(out, "  \"next_expiry\": [\n");
    for (size_t i = 0; i < next_results.size(); ++i) {
      const auto& r = next_results[i];
      std::fprintf(out,
                   "    {\"queue\": \"%s\", \"population\": %d, \"scan_ns\": %.1f, "
                   "\"refresh_ns\": %.1f, \"cached_ns\": %.2f, \"speedup\": %.1f}%s\n",
                   r.queue.c_str(), r.population, r.scan_ns, r.refresh_ns, r.cached_ns,
                   r.speedup, i + 1 < next_results.size() ? "," : "");
    }
    std::fprintf(out,
                 "  ],\n  \"gate_speedup_at_least_10x\": {\"threshold\": %.0f, "
                 "\"min_speedup\": %.1f, \"status\": \"%s\"},\n",
                 kSpeedupBound, min_speedup, speedup_ok ? "pass" : "fail");
    std::fprintf(out, "  \"gate_refresh\": {\"status\": \"%s\"},\n",
                 refresh_ok ? "pass" : "fail");
    std::fprintf(out, "  \"throughput\": [\n");
    for (size_t i = 0; i < throughput.size(); ++i) {
      const auto& r = throughput[i];
      std::fprintf(out,
                   "    {\"queue\": \"%s\", \"threads\": %d, \"shards\": %zu, "
                   "\"mops_per_sec\": %.3f, \"contended_locks\": %llu, "
                   "\"deadline_cache_hit_rate\": %.3f}%s\n",
                   r.queue.c_str(), r.threads, r.shards, r.mops_per_sec,
                   static_cast<unsigned long long>(r.contended_locks), r.cache_hit_rate,
                   i + 1 < throughput.size() ? "," : "");
    }
    std::fprintf(out, "  ]\n}\n");
    std::fclose(out);
    std::printf("wrote BENCH_timer_service.json\n");
  }
  return speedup_ok && refresh_ok ? 0 : 1;
}

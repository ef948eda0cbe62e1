// Tests for the live analysis layer (src/live): the bounded window rings,
// the burst detector's hysteresis, and the two live ≡ offline identity
// contracts of the drain path's taps.
//
// LiveAnalyzer: for a finished run, the live per-label set-rate series must
// equal what the offline RatesPass computes from the recorded trace of the
// same run. The equivalence is checked three ways, at several window sizes:
//   * synthetic record streams fed to both sides directly;
//   * a randomized multi-producer relay run, recorded to disk through
//     TraceStreamWriter on the same drain path the analyzer taps (the
//     concurrency tests run under the TSan CI job);
//   * a real workload (the Figure 1 Vista desktop) observed through the
//     LiveTapOptions hookup while it executes — which must also flag the
//     Outlook watchdog storm as a burst, online.
//
// PatternTracker: with no evictions, the live usage-pattern mix must equal
// ClassifyPass's group count per pattern over the same records, on every
// workload tapped live; a fold that resets at its capacity must hold no
// more episodes than that, count every group it drops, and equal
// ClassifyPass over the records fed since its last reset.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <map>
#include <random>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/analysis/classify.h"
#include "src/analysis/rates.h"
#include "src/live/burst.h"
#include "src/live/live_analyzer.h"
#include "src/live/pattern_tracker.h"
#include "src/live/window_ring.h"
#include "src/timer/timer_service.h"
#include "src/trace/file.h"
#include "src/trace/relay.h"
#include "src/trace/stream_writer.h"
#include "src/workloads/run.h"
#include "src/workloads/vista_workloads.h"
#include "tests/trace_sweep.h"

namespace tempo {
namespace {

using live::BurstDetector;
using live::BurstThresholds;
using live::LiveAnalyzer;
using live::LiveOptions;
using live::PatternTracker;
using live::RateRing;

TraceRecord Rec(SimTime ts, TimerOp op, Pid pid = kKernelPid, TimerId timer = 1,
                SimDuration timeout = 0) {
  TraceRecord r;
  r.timestamp = ts;
  r.op = op;
  r.pid = pid;
  r.timer = timer;
  r.timeout = timeout;
  return r;
}

// The live series must equal the offline RatesPass over the same records.
void ExpectMatchesOfflinePass(const std::vector<RateSeries>& live,
                              const std::vector<TraceRecord>& records,
                              const RateGrouping& grouping, const RateOptions& options) {
  RatesPass pass(grouping, options);
  pass.Accumulate(records);
  const std::vector<RateSeries> offline = pass.Result();
  ASSERT_EQ(live.size(), offline.size());
  for (size_t i = 0; i < live.size(); ++i) {
    EXPECT_EQ(live[i].label, offline[i].label) << "series " << i;
    EXPECT_EQ(live[i].per_window, offline[i].per_window)
        << "series " << live[i].label;
  }
}

// --- RateRing ---

TEST(LiveRingTest, CountsPerWindowAndTracksPeak) {
  RateRing ring(8);
  ring.Add(3);
  ring.Add(3);
  ring.Add(3);
  ring.Add(5, 2);
  EXPECT_EQ(ring.Count(3), 3u);
  EXPECT_EQ(ring.Count(5), 2u);
  EXPECT_EQ(ring.Count(4), 0u);
  EXPECT_EQ(ring.total(), 5u);
  EXPECT_EQ(ring.peak_count(), 3u);
  EXPECT_EQ(ring.peak_window(), 3u);
  EXPECT_EQ(ring.evicted_windows(), 0u);
}

TEST(LiveRingTest, EvictionIsCountedNeverSilent) {
  RateRing ring(4);  // power of two already
  for (uint64_t w = 0; w < 10; ++w) {
    ring.Add(w);
  }
  // Retained range is [6, 9]; windows 0..5 fell off the back.
  EXPECT_EQ(ring.lo(), 6u);
  EXPECT_EQ(ring.hi(), 9u);
  EXPECT_EQ(ring.Count(5), 0u);
  EXPECT_EQ(ring.Count(9), 1u);
  EXPECT_EQ(ring.evicted_windows(), 6u);
  EXPECT_EQ(ring.evicted_count(), 6u);
  EXPECT_EQ(ring.total(), 10u);  // totals stay exact after eviction
}

TEST(LiveRingTest, StragglerBelowRetentionGoesToEvictedTallies) {
  RateRing ring(4);
  ring.Add(0);
  ring.Add(100);  // jump far ahead: window 0 evicted
  ring.Add(1);    // straggler below retention
  EXPECT_EQ(ring.Count(1), 0u);
  EXPECT_EQ(ring.evicted_windows(), 2u);
  EXPECT_EQ(ring.evicted_count(), 2u);
  EXPECT_EQ(ring.total(), 3u);
}

// --- BurstDetector ---

TEST(LiveBurstTest, HysteresisMakesAWobblyStormOneBurst) {
  BurstThresholds t;
  t.threshold = 100.0;
  t.clear = 50.0;
  BurstDetector det(t, "");  // uninstrumented
  det.OnWindowClosed(0, 10.0);
  EXPECT_FALSE(det.active());
  det.OnWindowClosed(1, 150.0);  // crosses the threshold
  EXPECT_TRUE(det.active());
  EXPECT_EQ(det.bursts(), 1u);
  EXPECT_EQ(det.start_window(), 1u);
  det.OnWindowClosed(2, 60.0);  // below threshold but above clear: still on
  EXPECT_TRUE(det.active());
  EXPECT_EQ(det.bursts(), 1u);
  det.OnWindowClosed(3, 120.0);  // wobbles back up: same burst
  EXPECT_TRUE(det.active());
  EXPECT_EQ(det.bursts(), 1u);
  det.OnWindowClosed(4, 40.0);  // below clear: burst ends
  EXPECT_FALSE(det.active());
  det.OnWindowClosed(5, 200.0);  // a second storm
  EXPECT_EQ(det.bursts(), 2u);
  EXPECT_DOUBLE_EQ(det.peak_rate(), 200.0);
}

TEST(LiveBurstTest, ClearAboveThresholdIsClamped) {
  BurstThresholds t;
  t.threshold = 100.0;
  t.clear = 500.0;  // nonsense: would end every burst instantly
  BurstDetector det(t, "");
  det.OnWindowClosed(0, 150.0);
  EXPECT_TRUE(det.active());
  det.OnWindowClosed(1, 120.0);  // >= clamped clear (=threshold): stays on
  EXPECT_TRUE(det.active());
  EXPECT_EQ(det.bursts(), 1u);
}

// Groups per pattern name (single-use included) that the offline
// ClassifyPass finds in `records`, in UsagePattern order: what
// PatternTracker::Mix must report for the same records.
std::vector<std::pair<std::string, uint64_t>> OfflineMix(
    std::span<const TraceRecord> records) {
  ClassifyPass pass;
  pass.Accumulate(records);
  std::map<UsagePattern, uint64_t> groups;
  for (const TimerClass& c : pass.Result()) {
    ++groups[c.pattern];
  }
  std::vector<std::pair<std::string, uint64_t>> mix;
  for (const auto& [pattern, count] : groups) {
    mix.emplace_back(UsagePatternName(pattern), count);
  }
  return mix;
}

// --- LiveAnalyzer vs the offline RatesPass (identity contract) ---

// A synthetic stream with every labelled case: kernel records, mapped
// pids, default-labelled pids, a dropped (empty) label, non-counting ops,
// and trailing records sitting exactly on the derived trace end.
std::vector<TraceRecord> SyntheticStream() {
  std::vector<TraceRecord> records;
  std::mt19937_64 rng(2008);
  SimTime t = 0;
  for (int i = 0; i < 5000; ++i) {
    t += rng() % (40 * kMillisecond);
    const Pid pid = static_cast<Pid>(rng() % 5);  // 0=kernel, 1..4 users
    const uint64_t pick = rng() % 10;
    TimerOp op = TimerOp::kSet;
    if (pick >= 6 && pick < 8) {
      op = TimerOp::kExpire;
    } else if (pick == 8) {
      op = TimerOp::kCancel;
    } else if (pick == 9) {
      op = (i % 2) != 0 ? TimerOp::kInit : TimerOp::kBlock;
    }
    records.push_back(Rec(t, op, pid, rng() % 40, kSecond));
  }
  // Several records at the exact final timestamp: the offline pass derives
  // end = last timestamp and excludes them; the live side must agree.
  records.push_back(Rec(t, TimerOp::kSet, 1, 7, kSecond));
  records.push_back(Rec(t, TimerOp::kSet, 0, 8, kSecond));
  return records;
}

RateGrouping MixedGrouping() {
  RateGrouping grouping;
  grouping.pid_labels[1] = "Outlook";
  grouping.pid_labels[2] = "Browser";
  grouping.pid_labels[3] = "";  // explicitly dropped
  return grouping;  // pid 4 falls under the "System" default
}

TEST(LiveAnalyzerTest, SetRateResultEqualsOfflinePassAtSeveralWindows) {
  const std::vector<TraceRecord> records = SyntheticStream();
  const RateGrouping grouping = MixedGrouping();
  for (const SimDuration window :
       {100 * kMillisecond, kSecond, 3 * kSecond + 700 * kMillisecond}) {
    SCOPED_TRACE(testing::Message() << "window=" << window);
    LiveOptions options;
    options.window = window;
    options.grouping = grouping;
    options.stats_label = "test";
    LiveAnalyzer analyzer(options);
    for (const TraceRecord& r : records) {
      analyzer.Ingest(r);
    }
    EXPECT_EQ(analyzer.windows_evicted(), 0u);

    RateOptions rate_options;
    rate_options.window = window;
    ExpectMatchesOfflinePass(analyzer.SetRateResult(), records, grouping, rate_options);
  }
}

TEST(LiveAnalyzerTest, EmptyAndDegenerateStreams) {
  LiveOptions options;
  options.stats_label = "test-empty";
  LiveAnalyzer analyzer(options);
  EXPECT_TRUE(analyzer.SetRateResult().empty());
  // A single record: derived end == its timestamp, so nothing counts —
  // exactly like the offline pass.
  analyzer.Ingest(Rec(kSecond, TimerOp::kSet, 1, 1, kSecond));
  ExpectMatchesOfflinePass(analyzer.SetRateResult(),
                           {Rec(kSecond, TimerOp::kSet, 1, 1, kSecond)}, RateGrouping{},
                           RateOptions{});
}

TEST(LiveAnalyzerTest, RingEvictionIsSurfacedNotSilent) {
  LiveOptions options;
  options.window = kSecond;
  options.ring_windows = 4;
  options.stats_label = "test-evict";
  LiveAnalyzer analyzer(options);
  for (int w = 0; w < 64; ++w) {
    analyzer.Ingest(Rec(w * kSecond, TimerOp::kSet, 0, 1, kSecond));
  }
  EXPECT_GT(analyzer.windows_evicted(), 0u);
  const live::LiveSnapshot snap = analyzer.TakeSnapshot();
  EXPECT_EQ(snap.windows_evicted, analyzer.windows_evicted());
  // Totals remain exact even though old windows are gone.
  ASSERT_EQ(snap.processes.size(), 1u);
  EXPECT_EQ(snap.processes[0].sets, 64u);
}

// --- The randomized multi-producer equivalence run (TSan-covered) ---

class LiveEquivalenceTest : public ::testing::Test {
 protected:
  std::string Path() const { return testing::TempDir() + "/live_equiv.trc"; }
  void TearDown() override { std::remove(Path().c_str()); }
};

TEST_F(LiveEquivalenceTest, MultiProducerStreamedRunMatchesOfflinePass) {
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 20000;
  const RateGrouping grouping = MixedGrouping();
  const SimDuration windows[] = {100 * kMillisecond, kSecond,
                                 2 * kSecond + 300 * kMillisecond};
  for (const SimDuration window : windows) {
    SCOPED_TRACE(testing::Message() << "window=" << window);
    RelayChannelSet channels;
    std::vector<RelayChannel*> lanes;
    for (int p = 0; p < kProducers; ++p) {
      lanes.push_back(channels.Register("lane" + std::to_string(p)));
    }
    CallsiteRegistry callsites;
    TraceStreamWriter writer(Path(), &callsites);
    LiveOptions options;
    options.window = window;
    options.grouping = grouping;
    options.stats_label = "equiv";
    LiveAnalyzer analyzer(options);
    // One drain path, two consumers of the same merge: the stream writer
    // records the run while the analyzer watches it.
    RelayDrainer drainer(&channels, [&](const TraceRecord& r) {
      writer.Append(r);
      analyzer.Ingest(r);
    });

    std::atomic<bool> done{false};
    std::vector<std::thread> producers;
    for (int p = 0; p < kProducers; ++p) {
      producers.emplace_back([&, p] {
        std::mt19937_64 rng(1000u + static_cast<unsigned>(p) +
                            static_cast<unsigned>(window));
        SimTime t = rng() % kMillisecond;
        for (int i = 0; i < kPerProducer; ++i) {
          t += rng() % (2 * kMillisecond);  // nondecreasing per channel
          const Pid pid = static_cast<Pid>(rng() % 5);
          const uint64_t pick = rng() % 10;
          TimerOp op = TimerOp::kSet;
          if (pick >= 6 && pick < 8) {
            op = TimerOp::kExpire;
          } else if (pick == 8) {
            op = TimerOp::kCancel;
          } else if (pick == 9) {
            op = TimerOp::kBlock;
          }
          while (!lanes[p]->TryLog(Rec(t, op, pid, rng() % 100, kSecond))) {
            std::this_thread::yield();  // ring full: wait for the drainer
          }
        }
      });
    }
    std::thread consumer([&] {
      while (!done.load(std::memory_order_acquire)) {
        if (drainer.Poll() == 0) {
          std::this_thread::yield();
        }
      }
    });
    for (auto& thread : producers) {
      thread.join();
    }
    done.store(true, std::memory_order_release);
    consumer.join();
    channels.CloseAll();
    drainer.Finish();
    ASSERT_TRUE(writer.Close());
    for (const RelayChannel* lane : lanes) {
      EXPECT_EQ(lane->dropped(), 0u);
    }

    // The recorded file and the live view came from the same merge; the
    // offline pass over the file must reproduce the live series exactly.
    const Sweep loaded = SweepFile(Path());
    ASSERT_TRUE(loaded.ok());
    ASSERT_EQ(loaded.records.size(),
              static_cast<size_t>(kProducers) * kPerProducer);
    EXPECT_EQ(analyzer.records_ingested(), loaded.records.size());
    EXPECT_EQ(analyzer.windows_evicted(), 0u);
    RateOptions rate_options;
    rate_options.window = window;
    ExpectMatchesOfflinePass(analyzer.SetRateResult(), loaded.records, grouping,
                             rate_options);
  }
}

// --- The sharded TimerService traced live (TSan-covered) ---

TEST(LiveServiceTest, ConcurrentTimerServiceDrainsIntoTheAnalyzer) {
  RelayChannelSet channels;
  TimerService::Options service_options;
  service_options.shards = 4;
  service_options.stats_label = "live-service-test";
  service_options.trace = &channels;
  TimerService service(service_options);

  LiveOptions options;
  options.window = 100 * kMillisecond;
  options.stats_label = "service";
  LiveAnalyzer analyzer(options);
  std::vector<TraceRecord> merged;
  RelayDrainer drainer(&channels, [&](const TraceRecord& r) {
    merged.push_back(r);
    analyzer.Ingest(r);
  });

  constexpr int kWorkers = 4;
  constexpr int kOpsPerWorker = 4000;
  std::atomic<SimTime> now{0};
  std::atomic<int> remaining{kWorkers};
  std::vector<std::thread> workers;
  for (int w = 0; w < kWorkers; ++w) {
    workers.emplace_back([&, w] {
      std::mt19937_64 rng(77u + static_cast<unsigned>(w));
      std::vector<TimerHandle> handles;
      for (int i = 0; i < kOpsPerWorker; ++i) {
        const SimTime base = now.load(std::memory_order_acquire);
        handles.push_back(service.Schedule(
            base + kMillisecond * (1 + rng() % 2000), [](TimerHandle) {}));
        if (handles.size() > 4 && rng() % 10 < 7) {
          service.Cancel(handles.front());
          handles.erase(handles.begin());
        }
        if (i % 64 == 0) {
          std::this_thread::yield();
        }
      }
      remaining.fetch_sub(1, std::memory_order_acq_rel);
    });
  }
  // The driving clock: advances trace time, fires due shards, and drains
  // the per-shard channels into the live analyzer — all while the workers
  // keep scheduling and canceling. It runs until every worker is done, so
  // the test cannot race past them; sim time is capped so the window span
  // always fits the analyzer's ring (the identity below needs zero
  // evictions).
  constexpr SimTime kSimCap = 30 * kSecond;
  SimTime t = 0;
  while (remaining.load(std::memory_order_acquire) > 0) {
    if (t < kSimCap) {
      t += 10 * kMillisecond;
    }
    now.store(t, std::memory_order_release);
    service.SetTraceTime(t);
    service.AdvanceAll(t);
    drainer.Poll();
  }
  for (auto& thread : workers) {
    thread.join();
  }
  channels.CloseAll();
  drainer.Finish();

  ASSERT_GT(merged.size(), 0u);
  EXPECT_EQ(analyzer.records_ingested(), merged.size());
  ASSERT_EQ(analyzer.windows_evicted(), 0u);
  // Everything the service logs is kernel-labelled; live must equal the
  // offline pass over the very records the drainer emitted.
  RateOptions rate_options;
  rate_options.window = options.window;
  ExpectMatchesOfflinePass(analyzer.SetRateResult(), merged, RateGrouping{}, rate_options);
}

// --- End to end: a real workload observed while it runs ---

TEST(LiveWorkloadTest, VistaDesktopLiveEqualsOfflineAndFlagsOutlookBurst) {
  RelayChannelSet channels;
  std::unique_ptr<LiveAnalyzer> analyzer;
  PatternTracker patterns("");
  std::unique_ptr<RelayDrainer> drainer;
  LiveTapOptions tap;
  tap.channels = &channels;
  tap.poll = [&] {
    if (analyzer == nullptr) {
      // First poll: the workload has registered every process by now.
      LiveOptions options;
      options.window = kSecond;
      for (const Process& p : tap.processes->processes()) {
        if (p.pid != kKernelPid) {
          options.grouping.pid_labels[p.pid] = p.name;
        }
      }
      options.callsites = tap.callsites;
      options.stats_label = "workload";
      analyzer = std::make_unique<LiveAnalyzer>(options);
      drainer = std::make_unique<RelayDrainer>(
          &channels, [&a = *analyzer, &p = patterns](const TraceRecord& r) {
            a.Ingest(r);
            p.Ingest(r);
          });
    }
    drainer->Poll();
  };

  WorkloadOptions options;
  options.duration = 2 * kMinute;
  options.seed = 2008;
  options.live = &tap;
  TraceRun run = RunVistaDesktop(options);

  ASSERT_NE(analyzer, nullptr);
  channels.CloseAll();
  drainer->Finish();
  ASSERT_EQ(channels.size(), 1u);
  EXPECT_EQ(channels.channel(0)->dropped(), 0u);
  EXPECT_EQ(analyzer->records_ingested(), run.records.size());

  // Identity: the live series equal the offline pass over the recorded
  // trace, under the same per-process grouping.
  RateGrouping grouping;
  for (const auto& [name, pid] : run.pids) {
    grouping.pid_labels[pid] = name;
  }
  RateOptions rate_options;
  ExpectMatchesOfflinePass(analyzer->SetRateResult(), run.records, grouping, rate_options);

  // And the observatory caught Figure 1 online: Outlook's watchdog storm
  // as a burst >= 5000 sets/s, over a kernel baseline near 1000/s.
  const live::LiveSnapshot snap = analyzer->TakeSnapshot();
  const live::LiveSeriesStats* outlook = nullptr;
  const live::LiveSeriesStats* kernel = nullptr;
  for (const auto& s : snap.processes) {
    if (s.label == "outlook.exe") {
      outlook = &s;
    } else if (s.label == "Kernel") {
      kernel = &s;
    }
  }
  ASSERT_NE(outlook, nullptr);
  ASSERT_NE(kernel, nullptr);
  EXPECT_GE(outlook->bursts, 1u);
  EXPECT_GE(outlook->burst_peak_rate, 5000.0);
  EXPECT_GT(kernel->mean_rate, 900.0);
  EXPECT_LT(kernel->mean_rate, 1100.0);
  // The pattern mix is live too, and it is Figure 2's: the offline rule
  // over the desktop's call-site groups.
  EXPECT_EQ(patterns.evictions(), 0u);
  EXPECT_EQ(patterns.Mix(), OfflineMix(run.records));
}

// --- The usage-pattern mix: PatternTracker vs the offline ClassifyPass ---

// Every workload, tapped live for two minutes the way tempotop taps it:
// with the default capacity nothing is evicted, and the mix is exactly
// ClassifyPass's group count per pattern over the recorded trace.
class LivePatternWorkloadTest : public ::testing::TestWithParam<const char*> {};

TEST_P(LivePatternWorkloadTest, MixEqualsOfflineClassify) {
  const WorkloadEntry* workload = FindWorkload(GetParam());
  ASSERT_NE(workload, nullptr);
  RelayChannelSet channels;
  PatternTracker patterns("");
  std::unique_ptr<RelayDrainer> drainer;
  LiveTapOptions tap;
  tap.channels = &channels;
  tap.poll = [&] {
    if (drainer == nullptr) {
      drainer = std::make_unique<RelayDrainer>(
          &channels, [&p = patterns](const TraceRecord& r) { p.Ingest(r); });
    }
    drainer->Poll();
  };
  WorkloadOptions options;
  options.duration = 2 * kMinute;
  options.seed = 2008;
  options.live = &tap;
  TraceRun run = workload->run(options);
  ASSERT_NE(drainer, nullptr);
  channels.CloseAll();
  drainer->Finish();
  ASSERT_EQ(channels.size(), 1u);
  EXPECT_EQ(channels.channel(0)->dropped(), 0u);

  EXPECT_EQ(patterns.evictions(), 0u);
  const auto offline = OfflineMix(run.records);
  ASSERT_FALSE(offline.empty());
  EXPECT_EQ(patterns.Mix(), offline);
  uint64_t groups = 0;
  for (const auto& [name, count] : offline) {
    groups += count;
  }
  EXPECT_EQ(patterns.tracked(), groups);
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, LivePatternWorkloadTest,
                         ::testing::Values("linux-idle", "linux-skype", "linux-firefox",
                                           "linux-webserver", "vista-idle", "vista-skype",
                                           "vista-firefox", "vista-webserver",
                                           "vista-desktop"),
                         [](const ::testing::TestParamInfo<const char*>& workload) {
                           std::string name = workload.param;
                           std::replace(name.begin(), name.end(), '-', '_');
                           return name;
                         });

// A time-ordered stream mixing Figure 2's idioms: a periodic ticker, a
// watchdog, a timeout, per-call (kFlagDynamicAlloc) timers that cluster by
// call site and thread, and random operations on a few dozen timers.
std::vector<TraceRecord> PatternStream() {
  std::vector<TraceRecord> records;
  std::mt19937_64 rng(2008);
  TimerId dynamic = 1000;
  for (uint64_t tick = 0; tick < 6000; ++tick) {
    const SimTime t = static_cast<SimTime>(tick) * 10 * kMillisecond;
    if (tick % 10 == 0) {
      if (tick > 0) {
        records.push_back(Rec(t, TimerOp::kExpire, 0, 1));
      }
      records.push_back(Rec(t, TimerOp::kSet, 0, 1, 100 * kMillisecond));
    }
    if (tick % 30 == 5) {
      records.push_back(Rec(t, TimerOp::kSet, 1, 2, 5 * kSecond));
    }
    if (tick % 50 == 7) {
      records.push_back(Rec(t, TimerOp::kSet, 2, 3, kSecond));
      records.push_back(Rec(t, TimerOp::kCancel, 2, 3));
    }
    if (tick % 20 == 3) {
      // A fresh KTIMER per call: only the call site ties them together.
      if (dynamic > 1000) {
        TraceRecord cancel = Rec(t, TimerOp::kCancel, 3, dynamic);
        cancel.flags = kFlagDynamicAlloc;
        records.push_back(cancel);
      }
      TraceRecord set = Rec(t, TimerOp::kSet, 3, ++dynamic, 200 * kMillisecond);
      set.flags = kFlagDynamicAlloc;
      set.callsite = 9;
      set.tid = 1;
      records.push_back(set);
    }
    if (rng() % 3 == 0) {
      const TimerOp ops[] = {TimerOp::kSet, TimerOp::kSet, TimerOp::kCancel,
                             TimerOp::kExpire, TimerOp::kBlock, TimerOp::kInit};
      const TimerOp op = ops[rng() % 6];
      const TimerId timer = 100 + rng() % 40;
      const SimDuration timeout = static_cast<SimDuration>(1 + rng() % 50) * kMillisecond;
      records.push_back(Rec(t, op, 4, timer, timeout));
    }
  }
  return records;
}

// A fold that reaches its capacity starts over: it never holds more
// episodes than the capacity, every group it drops is counted (in the obs
// registry too), and after each reset the mix is ClassifyPass over the
// records fed since.
TEST(LivePatternTest, CapacityBoundsTheFoldAndCountsDroppedGroups) {
  const std::vector<TraceRecord> records = PatternStream();
  const std::span<const TraceRecord> all(records);
  for (const size_t capacity : {size_t{1}, size_t{5}, size_t{64}}) {
    SCOPED_TRACE(testing::Message() << "capacity=" << capacity);
    const std::string label = "live-pattern-" + std::to_string(capacity);
    PatternTracker patterns(label, capacity);
    size_t since = 0;
    size_t resets = 0;
    for (size_t i = 0; i < records.size(); ++i) {
      const size_t groups_before = patterns.tracked();
      const uint64_t evictions_before = patterns.evictions();
      patterns.Ingest(records[i]);
      if (patterns.evictions() != evictions_before) {
        ++resets;
        EXPECT_EQ(patterns.evictions() - evictions_before, groups_before);
        since = i;
      }
      ASSERT_LE(patterns.episodes(), capacity);
      ASSERT_EQ(patterns.Mix(), OfflineMix(all.subspan(since, i + 1 - since)))
          << "after record " << i << ", " << resets << " resets";
    }
    EXPECT_GT(resets, 10u);

    obs::Registry& registry = obs::Registry::Global();
    const obs::Labels labels = {{"analyzer", label}};
    EXPECT_EQ(registry.GetCounter("live_classifier_evictions", labels)->value(),
              patterns.evictions());
    patterns.SyncObs();
    EXPECT_EQ(registry.GetGauge("live_classifier_tracked", labels)->value(),
              static_cast<int64_t>(patterns.tracked()));
  }
}

}  // namespace
}  // namespace tempo

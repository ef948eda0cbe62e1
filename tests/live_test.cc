// Tests for the live analysis layer (src/live): the bounded window rings,
// the burst detector's hysteresis, the online usage-pattern classifier and
// its LRU, and the LiveAnalyzer's load-bearing identity contract — for a
// finished run, the live per-label set-rate series must equal what the
// offline RatesPass computes from the recorded trace of the same run.
// The equivalence is checked three ways, at several window sizes:
//   * synthetic record streams fed to both sides directly;
//   * a randomized multi-producer relay run, recorded to disk through
//     TraceStreamWriter on the same drain path the analyzer taps (the
//     concurrency tests run under the TSan CI job);
//   * a real workload (the Figure 1 Vista desktop) observed through the
//     LiveTapOptions hookup while it executes — which must also flag the
//     Outlook watchdog storm as a burst, online.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "src/analysis/rates.h"
#include "src/live/burst.h"
#include "src/live/classifier.h"
#include "src/live/live_analyzer.h"
#include "src/live/window_ring.h"
#include "src/timer/timer_service.h"
#include "src/trace/file.h"
#include "src/trace/relay.h"
#include "src/trace/stream_writer.h"
#include "src/workloads/vista_workloads.h"
#include "tests/trace_sweep.h"

namespace tempo {
namespace {

using live::BurstDetector;
using live::BurstThresholds;
using live::LiveAnalyzer;
using live::LiveOptions;
using live::OnlineClassifier;
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

// --- OnlineClassifier ---

OnlineClassifier::Options QuietOptions(size_t capacity = 64) {
  OnlineClassifier::Options o;
  o.capacity = capacity;
  o.stats_label.clear();  // keep unit tests out of the global registry
  return o;
}

UsagePattern PatternOf(const OnlineClassifier& c, TimerId id) {
  UsagePattern p = UsagePattern::kOther;
  EXPECT_TRUE(c.Lookup(id, &p));
  return p;
}

TEST(LiveClassifierTest, PeriodicTimerIsClassifiedStreaming) {
  OnlineClassifier c(QuietOptions());
  const SimDuration period = 100 * kMillisecond;
  SimTime t = 0;
  for (int i = 0; i < 4; ++i) {
    c.Observe(Rec(t, TimerOp::kSet, 1, 7, period));
    t += period;
    c.Observe(Rec(t, TimerOp::kExpire, 1, 7));
  }
  EXPECT_EQ(PatternOf(c, 7), UsagePattern::kPeriodic);
}

TEST(LiveClassifierTest, WatchdogNeverExpires) {
  OnlineClassifier c(QuietOptions());
  for (int i = 0; i < 4; ++i) {
    c.Observe(Rec(i * kSecond, TimerOp::kSet, 1, 7, 5 * kSecond));
  }
  EXPECT_EQ(PatternOf(c, 7), UsagePattern::kWatchdog);
}

TEST(LiveClassifierTest, TimeoutIsCanceledThenReSet) {
  OnlineClassifier c(QuietOptions());
  for (int i = 0; i < 4; ++i) {
    c.Observe(Rec(i * kSecond, TimerOp::kSet, 1, 7, 100 * kMillisecond));
    c.Observe(Rec(i * kSecond + 10 * kMillisecond, TimerOp::kCancel, 1, 7));
  }
  EXPECT_EQ(PatternOf(c, 7), UsagePattern::kTimeout);
}

TEST(LiveClassifierTest, DelayReSetsAfterARealGap) {
  OnlineClassifier c(QuietOptions());
  SimTime t = 0;
  for (int i = 0; i < 4; ++i) {
    c.Observe(Rec(t, TimerOp::kSet, 1, 7, 100 * kMillisecond));
    t += 100 * kMillisecond;
    c.Observe(Rec(t, TimerOp::kExpire, 1, 7));
    t += 100 * kMillisecond;  // a gap well beyond the 2 ms variance
  }
  EXPECT_EQ(PatternOf(c, 7), UsagePattern::kDelay);
}

TEST(LiveClassifierTest, CountdownCountsThePreviousValueDown) {
  OnlineClassifier c(QuietOptions());
  c.Observe(Rec(0, TimerOp::kSet, 1, 7, 500 * kMillisecond));
  c.Observe(Rec(100 * kMillisecond, TimerOp::kSet, 1, 7, 400 * kMillisecond));
  c.Observe(Rec(200 * kMillisecond, TimerOp::kSet, 1, 7, 300 * kMillisecond));
  c.Observe(Rec(300 * kMillisecond, TimerOp::kSet, 1, 7, 200 * kMillisecond));
  EXPECT_EQ(PatternOf(c, 7), UsagePattern::kCountdown);
}

TEST(LiveClassifierTest, WatchdogWithExpiriesIsDeferred) {
  OnlineClassifier c(QuietOptions());
  // Deferred four times like a watchdog...
  for (int i = 0; i < 5; ++i) {
    c.Observe(Rec(i * 500 * kMillisecond, TimerOp::kSet, 1, 7, kSecond));
  }
  // ...then it finally fires and is restarted.
  c.Observe(Rec(3 * kSecond, TimerOp::kExpire, 1, 7));
  c.Observe(Rec(3 * kSecond, TimerOp::kSet, 1, 7, kSecond));
  EXPECT_EQ(PatternOf(c, 7), UsagePattern::kDeferred);
}

TEST(LiveClassifierTest, BelowMinEpisodesStaysSingleUse) {
  OnlineClassifier c(QuietOptions());
  c.Observe(Rec(0, TimerOp::kSet, 1, 7, kSecond));
  c.Observe(Rec(kSecond, TimerOp::kSet, 1, 7, kSecond));
  EXPECT_EQ(PatternOf(c, 7), UsagePattern::kSingleUse);
}

TEST(LiveClassifierTest, LruEvictsColdestAndFreezesItsPattern) {
  OnlineClassifier c(QuietOptions(/*capacity=*/2));
  c.Observe(Rec(0, TimerOp::kSet, 1, 1, kSecond));
  c.Observe(Rec(1, TimerOp::kSet, 1, 2, kSecond));
  c.Observe(Rec(2, TimerOp::kSet, 1, 3, kSecond));  // evicts timer 1
  EXPECT_EQ(c.tracked(), 2u);
  EXPECT_EQ(c.evictions(), 1u);
  UsagePattern p;
  EXPECT_FALSE(c.Lookup(1, &p));
  EXPECT_TRUE(c.Lookup(2, &p));
  EXPECT_TRUE(c.Lookup(3, &p));
  // The evicted timer's pattern stays frozen in the aggregate mix.
  EXPECT_EQ(c.mix()[static_cast<size_t>(UsagePattern::kSingleUse)], 3u);
  // A cancel/expire of an evicted timer must not resurrect it.
  c.Observe(Rec(3, TimerOp::kExpire, 1, 1));
  EXPECT_EQ(c.tracked(), 2u);
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
    options.classifier.stats_label.clear();
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
  options.classifier.stats_label.clear();
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
  options.classifier.stats_label.clear();
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
    options.classifier.stats_label.clear();
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
  options.classifier.stats_label.clear();
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
      options.classifier.stats_label.clear();
      options.stats_label = "workload";
      analyzer = std::make_unique<LiveAnalyzer>(options);
      drainer = std::make_unique<RelayDrainer>(
          &channels, [&a = *analyzer](const TraceRecord& r) { a.Ingest(r); });
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
  // The pattern mix is live too: the desktop has periodic tickers and
  // watchdog-style timers among its classified population.
  uint64_t periodic = 0;
  uint64_t watchdog = 0;
  for (const auto& [name, count] : snap.patterns) {
    if (name == std::string(UsagePatternName(UsagePattern::kPeriodic))) {
      periodic = count;
    }
    if (name == std::string(UsagePatternName(UsagePattern::kWatchdog))) {
      watchdog = count;
    }
  }
  EXPECT_GT(periodic, 0u);
  EXPECT_GT(watchdog, 0u);
}

}  // namespace
}  // namespace tempo

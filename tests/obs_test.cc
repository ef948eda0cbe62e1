// Unit tests for the obs self-metrics layer: registry uniqueness,
// histogram bucket boundaries and quantiles, probe behaviour, snapshot
// determinism under a virtual probe clock, and the three renderers.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <random>
#include <string>
#include <vector>

#include "src/dispatcher/dispatcher.h"
#include "src/obs/metrics.h"
#include "src/obs/probe.h"
#include "src/obs/scrape_server.h"
#include "src/obs/snapshot.h"
#include "src/sim/simulator.h"
#include "src/timer/queue.h"

namespace tempo {
namespace {

using obs::Histogram;
using obs::Registry;

// Tests share the process-global registry with every other instrumented
// subsystem, so each test zeroes values first and asserts on deltas or on
// a private Registry instance.
class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Registry::Global().Reset();
    obs::SetProbesEnabled(true);
    obs::SetProbeClock(nullptr);  // default wall clock
  }
  void TearDown() override {
    obs::SetProbesEnabled(true);
    obs::SetProbeClock(nullptr);
  }
};

// --- Registry ---

TEST_F(ObsTest, SameNameAndLabelsReturnsSameInstrument) {
  Registry reg;
  obs::Counter* a = reg.GetCounter("ops", {{"queue", "heap"}});
  obs::Counter* b = reg.GetCounter("ops", {{"queue", "heap"}});
  EXPECT_EQ(a, b);
  a->Inc(3);
  EXPECT_EQ(b->value(), 3u);
}

TEST_F(ObsTest, LabelOrderDoesNotMatter) {
  Registry reg;
  obs::Counter* a = reg.GetCounter("ops", {{"queue", "heap"}, {"op", "set"}});
  obs::Counter* b = reg.GetCounter("ops", {{"op", "set"}, {"queue", "heap"}});
  EXPECT_EQ(a, b);
}

TEST_F(ObsTest, DifferentLabelsReturnDistinctInstruments) {
  Registry reg;
  obs::Counter* a = reg.GetCounter("ops", {{"queue", "heap"}});
  obs::Counter* b = reg.GetCounter("ops", {{"queue", "tree"}});
  EXPECT_NE(a, b);
  EXPECT_EQ(reg.size(), 2u);
}

TEST_F(ObsTest, KindMismatchReturnsNull) {
  Registry reg;
  ASSERT_NE(reg.GetCounter("x"), nullptr);
  EXPECT_EQ(reg.GetGauge("x"), nullptr);
  EXPECT_EQ(reg.GetHistogram("x"), nullptr);
  // The original is untouched and still reachable.
  EXPECT_NE(reg.GetCounter("x"), nullptr);
}

TEST_F(ObsTest, ResetZeroesValuesButKeepsInstruments) {
  Registry reg;
  obs::Counter* c = reg.GetCounter("c");
  obs::Histogram* h = reg.GetHistogram("h");
  c->Inc(7);
  h->Record(42);
  reg.Reset();
  EXPECT_EQ(c->value(), 0u);
  EXPECT_EQ(h->count(), 0u);
  EXPECT_EQ(reg.GetCounter("c"), c);  // same instrument, pointer-stable
}

// --- Histogram ---

TEST_F(ObsTest, BucketBoundariesArePowersOfTwo) {
  // 0 is its own bucket; then [1,2), [2,4), [4,8), ...
  EXPECT_EQ(Histogram::BucketIndex(0), 0u);
  EXPECT_EQ(Histogram::BucketIndex(1), 1u);
  EXPECT_EQ(Histogram::BucketIndex(2), 2u);
  EXPECT_EQ(Histogram::BucketIndex(3), 2u);
  EXPECT_EQ(Histogram::BucketIndex(4), 3u);
  EXPECT_EQ(Histogram::BucketIndex(1023), 10u);
  EXPECT_EQ(Histogram::BucketIndex(1024), 11u);
  // The top bucket absorbs the extreme range instead of overflowing.
  EXPECT_EQ(Histogram::BucketIndex(UINT64_MAX), Histogram::kBucketCount - 1);
  for (size_t i = 0; i < Histogram::kBucketCount - 1; ++i) {
    const uint64_t lo = Histogram::BucketLowerBound(i);
    const uint64_t hi = Histogram::BucketUpperBound(i);
    EXPECT_LT(lo, hi);
    EXPECT_EQ(Histogram::BucketIndex(lo), i) << "lower bound of bucket " << i;
    EXPECT_EQ(Histogram::BucketIndex(hi - 1), i) << "upper bound of bucket " << i;
    EXPECT_EQ(Histogram::BucketIndex(hi), i + 1);
  }
}

TEST_F(ObsTest, HistogramTracksCountSumMinMax) {
  Registry reg;
  Histogram* h = reg.GetHistogram("h");
  h->Record(10);
  h->Record(100);
  h->Record(1);
  EXPECT_EQ(h->count(), 3u);
  EXPECT_EQ(h->sum(), 111u);
  EXPECT_EQ(h->min(), 1u);
  EXPECT_EQ(h->max(), 100u);
  EXPECT_DOUBLE_EQ(h->mean(), 37.0);
}

TEST_F(ObsTest, SingleValueQuantilesAreExact) {
  Registry reg;
  Histogram* h = reg.GetHistogram("h");
  for (int i = 0; i < 1000; ++i) {
    h->Record(236);  // the paper's cycles/record
  }
  EXPECT_DOUBLE_EQ(h->Quantile(0.50), 236.0);
  EXPECT_DOUBLE_EQ(h->Quantile(0.90), 236.0);
  EXPECT_DOUBLE_EQ(h->Quantile(0.99), 236.0);
}

TEST_F(ObsTest, QuantilesRespectBucketResolution) {
  Registry reg;
  Histogram* h = reg.GetHistogram("h");
  // 90 fast ops in [8,16), 10 slow ops in [1024,2048).
  for (int i = 0; i < 90; ++i) {
    h->Record(10);
  }
  for (int i = 0; i < 10; ++i) {
    h->Record(1500);
  }
  // p50 lands in the fast bucket, p99 in the slow one; log-scale buckets
  // bound each estimate within a factor of two of the true value.
  EXPECT_GE(h->Quantile(0.50), 8.0);
  EXPECT_LT(h->Quantile(0.50), 16.0);
  EXPECT_GE(h->Quantile(0.99), 1024.0);
  EXPECT_LE(h->Quantile(0.99), 1500.0);
  EXPECT_EQ(h->Quantile(0.0), 10.0);   // clamped to observed min
  EXPECT_EQ(h->Quantile(1.0), 1500.0); // clamped to observed max
}

TEST_F(ObsTest, EmptyHistogramQuantileIsZero) {
  Registry reg;
  EXPECT_DOUBLE_EQ(reg.GetHistogram("h")->Quantile(0.99), 0.0);
}

// --- ScopedProbe ---

uint64_t g_test_cycles = 0;
uint64_t TestClock() { return g_test_cycles += 10; }

TEST_F(ObsTest, ProbeRecordsElapsedProbeClockCycles) {
  obs::SetProbeClock(&TestClock);
  Registry reg;
  Histogram* h = reg.GetHistogram("probe");
  {
    obs::ScopedProbe probe(h);  // start read, then end read: 10 cycles apart
  }
  ASSERT_EQ(h->count(), 1u);
  EXPECT_EQ(h->sum(), 10u);
}

TEST_F(ObsTest, DisabledProbesRecordNothing) {
  obs::SetProbeClock(&TestClock);
  Registry reg;
  Histogram* h = reg.GetHistogram("probe");
  obs::SetProbesEnabled(false);
  const uint64_t clock_before = g_test_cycles;
  {
    obs::ScopedProbe probe(h);
  }
  EXPECT_EQ(h->count(), 0u);
  // The disabled path must not even read the clock.
  EXPECT_EQ(g_test_cycles, clock_before);
}

TEST_F(ObsTest, NullHistogramProbeIsSafe) {
  obs::ScopedProbe probe(nullptr);  // e.g. a kind-mismatched Get
}

// --- Probe sampling ---

// Calls a fresh histogram's sampler `calls` times and counts the timed
// calls: what `calls` probes on a fresh histogram must record.
uint64_t TimedCallsOfFreshHistogram(uint64_t calls) {
  Registry reg;
  Histogram* replay = reg.GetHistogram("replay");
  uint64_t timed = 0;
  for (uint64_t i = 0; i < calls; ++i) {
    timed += replay->SampleCall() ? 1 : 0;
  }
  return timed;
}

TEST_F(ObsTest, ProbesTimeAboutOneCallIn64AndQueuesCountEveryCall) {
  obs::SetProbeClock(&TestClock);
  constexpr uint64_t kCalls = 64 * 1000;
  const uint64_t expected = TimedCallsOfFreshHistogram(kCalls);
  EXPECT_GE(expected, kCalls / Histogram::kProbeSampleEvery * 9 / 10);
  EXPECT_LE(expected, kCalls / Histogram::kProbeSampleEvery * 11 / 10);

  Registry reg;
  Histogram* h = reg.GetHistogram("probe");
  for (uint64_t i = 0; i < kCalls; ++i) {
    obs::ScopedProbe probe(h);
  }
  EXPECT_EQ(h->count(), expected);
  EXPECT_EQ(h->sum(), expected * 10);  // every timed call read the clock twice

  for (const std::string& name : TimerQueueNames()) {
    Registry::Global().Reset();
    TimerQueueOptions queue_options;
    queue_options.name = name;
    auto queue = MakeTimerQueue(queue_options);
    std::vector<TimerHandle> handles;
    for (uint64_t i = 0; i < kCalls; ++i) {
      handles.push_back(queue->Schedule(static_cast<SimDuration>(i + 1) * kMillisecond,
                                        [](TimerHandle) {}));
    }
    for (const TimerHandle handle : handles) {
      queue->Cancel(handle);
    }
    const obs::MetricsSnapshot snap = Registry::Global().TakeSnapshot();
    for (const char* op : {"set", "cancel"}) {
      const obs::SnapshotEntry* ops = snap.Find("timer_ops", {{"op", op}, {"queue", name}});
      const obs::SnapshotEntry* cycles =
          snap.Find("timer_op_cycles", {{"op", op}, {"queue", name}});
      ASSERT_NE(ops, nullptr) << name << " " << op;
      ASSERT_NE(cycles, nullptr) << name << " " << op;
      EXPECT_EQ(ops->value, static_cast<int64_t>(kCalls)) << name << " " << op;
      EXPECT_EQ(cycles->count, expected) << name << " " << op;
    }
  }
}

TEST_F(ObsTest, FreshHistogramsTimeTheSameCalls) {
  obs::SetProbeClock(&TestClock);
  Registry reg;
  Histogram* a = reg.GetHistogram("a");
  Histogram* b = reg.GetHistogram("b");
  Histogram* reset = reg.GetHistogram("reset");
  for (int i = 0; i < 1000; ++i) {
    obs::ScopedProbe probe(reset);  // moves its sampler away from the start
  }
  reg.Reset();
  for (int i = 0; i < 10000; ++i) {
    const uint64_t cycles_before = g_test_cycles;
    {
      obs::ScopedProbe probe(a);
    }
    const bool a_timed = g_test_cycles != cycles_before;
    {
      obs::ScopedProbe probe(b);
    }
    const bool b_timed = g_test_cycles != cycles_before + (a_timed ? 20 : 0);
    ASSERT_EQ(a_timed, b_timed) << "call " << i;
    ASSERT_EQ(reset->SampleCall(), a_timed) << "call " << i;  // Reset restarts the sampler
  }
  EXPECT_EQ(a->count(), b->count());
  EXPECT_GT(a->count(), 0u);
}

TEST_F(ObsTest, DisabledProbesLeaveTheSamplerWhereItWas) {
  obs::SetProbeClock(&TestClock);
  Registry reg;
  Histogram* h = reg.GetHistogram("probe");
  obs::SetProbesEnabled(false);
  for (int i = 0; i < 100; ++i) {
    obs::ScopedProbe probe(h);
  }
  obs::SetProbesEnabled(true);
  {
    obs::ScopedProbe probe(h);  // still the histogram's first call
  }
  EXPECT_EQ(h->count(), 1u);
}

// A probe clock scripted per call: a timed probe's start read returns the
// current time and its end read returns that time plus g_script_cycles.
uint64_t g_script_now = 0;
uint64_t g_script_cycles = 0;
bool g_script_started = false;
uint64_t ScriptedClock() {
  g_script_started = !g_script_started;
  if (!g_script_started) {
    g_script_now += g_script_cycles;
  }
  return g_script_now;
}

// Feeds `cycles` through probes on one histogram and records every value
// into another, then checks that the sample's p50 and p99 fall within one
// log2 bucket of the full record's.
void ExpectSampledQuantilesTrackEveryCall(const std::vector<uint64_t>& cycles) {
  obs::SetProbeClock(&ScriptedClock);
  Registry reg;
  Histogram* sampled = reg.GetHistogram("sampled");
  Histogram* every = reg.GetHistogram("every");
  for (const uint64_t c : cycles) {
    g_script_cycles = c;
    {
      obs::ScopedProbe probe(sampled);
    }
    every->Record(c);
  }
  ASSERT_EQ(every->count(), cycles.size());
  ASSERT_LT(sampled->count(), cycles.size() / 32);
  for (const double q : {0.5, 0.99}) {
    const size_t sampled_bucket =
        Histogram::BucketIndex(static_cast<uint64_t>(sampled->Quantile(q)));
    const size_t every_bucket =
        Histogram::BucketIndex(static_cast<uint64_t>(every->Quantile(q)));
    EXPECT_LE(sampled_bucket, every_bucket + 1) << "q=" << q;
    EXPECT_GE(sampled_bucket + 1, every_bucket) << "q=" << q;
  }
}

TEST_F(ObsTest, SampledQuantilesTrackARandomStream) {
  std::mt19937_64 rng(2008);
  std::vector<uint64_t> cycles;
  for (int i = 0; i < 64 * 4096; ++i) {
    // Mostly 64-512 cycles, with a tail of one call in ten up to 64k.
    cycles.push_back(rng() % 10 == 0 ? 512 + rng() % 65536 : 64 + rng() % 448);
  }
  ExpectSampledQuantilesTrackEveryCall(cycles);
}

TEST_F(ObsTest, SampledQuantilesTrackAStreamWithEvery64thCallSlow) {
  // A fixed 1-in-64 counter always lands on the same phase of this
  // pattern, so it times either no slow call or only slow ones.
  std::vector<uint64_t> cycles;
  for (int i = 0; i < 64 * 4096; ++i) {
    cycles.push_back(i % 64 == 63 ? 8000 : 100);
  }
  ExpectSampledQuantilesTrackEveryCall(cycles);
}

// --- Renderer escaping ---

// Prometheus exposition rules: backslash, double quote and newline in a
// label value must render as \\, \" and \n. A value like a Windows path
// ("C:\x") used to produce an unparseable exposition line.
TEST_F(ObsTest, PrometheusLabelValuesAreEscaped) {
  Registry reg;
  reg.GetCounter("esc_total", {{"path", "C:\\temp\\\"quoted\"\nline"}})->Inc(3);
  const obs::MetricsSnapshot snap = reg.TakeSnapshot();

  const std::string prom = obs::RenderPrometheus(snap);
  EXPECT_NE(prom.find("esc_total{path=\"C:\\\\temp\\\\\\\"quoted\\\"\\nline\"} 3"),
            std::string::npos)
      << prom;
  // No raw newline may survive inside the braces (it would split the line).
  const size_t brace = prom.find('{');
  ASSERT_NE(brace, std::string::npos);
  EXPECT_EQ(prom.find('\n', brace), prom.find("\"} 3\n") + 4) << prom;

  // The text renderer shares the labelled-name formatting.
  const std::string text = obs::RenderText(snap);
  EXPECT_NE(text.find("\\\\temp"), std::string::npos) << text;
  EXPECT_NE(text.find("\\n"), std::string::npos) << text;
}

// --- Snapshot determinism under the sim clock ---

// Runs a deterministic simulation exercising probed subsystems (timer
// queue + dispatcher + sim core) and returns the rendered snapshot.
std::string RunScenarioAndSnapshot() {
  Registry::Global().Reset();
  Simulator sim(42);
  InstallSimProbeClock(&sim);  // virtual time only: no wall-clock reads
  TimerQueueOptions queue_options;
  queue_options.name = "tree";
  auto queue = MakeTimerQueue(queue_options);
  for (int i = 0; i < 100; ++i) {
    const TimerHandle h = queue->Schedule(i * kMillisecond, [](TimerHandle) {});
    if (i % 3 == 0) {
      queue->Cancel(h);
    }
  }
  TemporalDispatcher dispatcher(&sim);
  DispatchTask* task = dispatcher.CreateTask("t");
  task->RunEvery(5 * kMillisecond, kMillisecond, [&queue, &sim] {
    queue->Advance(sim.Now());
  });
  sim.RunFor(200 * kMillisecond);
  InstallSimProbeClock(nullptr);
  const obs::MetricsSnapshot snap = Registry::Global().TakeSnapshot();
  return obs::RenderText(snap) + obs::RenderJson(snap) + obs::RenderPrometheus(snap);
}

TEST_F(ObsTest, SnapshotIsDeterministicUnderSimClock) {
  const std::string first = RunScenarioAndSnapshot();
  const std::string second = RunScenarioAndSnapshot();
  EXPECT_EQ(first, second);
  // And the scenario actually produced timer metrics, not an empty echo.
  EXPECT_NE(first.find("timer_ops{op=\"set\",queue=\"tree\"}"), std::string::npos);
  EXPECT_NE(first.find("dispatcher_batch_size"), std::string::npos);
}

// --- Instrumented subsystems report through the global registry ---

TEST_F(ObsTest, TimerQueueOpsAreCounted) {
  for (const std::string& name : TimerQueueNames()) {
    Registry::Global().Reset();
    TimerQueueOptions queue_options;
    queue_options.name = name;
    auto queue = MakeTimerQueue(queue_options);
    const TimerHandle a = queue->Schedule(kMillisecond, [](TimerHandle) {});
    queue->Schedule(2 * kMillisecond, [](TimerHandle) {});
    queue->Cancel(a);
    queue->Advance(10 * kMillisecond);
    const obs::MetricsSnapshot snap = Registry::Global().TakeSnapshot();
    const obs::SnapshotEntry* set =
        snap.Find("timer_ops", {{"op", "set"}, {"queue", name}});
    const obs::SnapshotEntry* cancel =
        snap.Find("timer_ops", {{"op", "cancel"}, {"queue", name}});
    const obs::SnapshotEntry* expire =
        snap.Find("timer_ops", {{"op", "expire"}, {"queue", name}});
    ASSERT_NE(set, nullptr) << name;
    ASSERT_NE(cancel, nullptr) << name;
    ASSERT_NE(expire, nullptr) << name;
    EXPECT_EQ(set->value, 2) << name;
    EXPECT_EQ(cancel->value, 1) << name;
    EXPECT_EQ(expire->value, 1) << name;
  }
}

TEST_F(ObsTest, DispatcherBatchingIsMeasured) {
  Simulator sim(7);
  TemporalDispatcher dispatcher(&sim);
  DispatchTask* a = dispatcher.CreateTask("a");
  DispatchTask* b = dispatcher.CreateTask("b");
  // Two cadences with generous slack collapse into shared wakeups.
  a->RunEvery(10 * kMillisecond, 8 * kMillisecond, [] {});
  b->RunEvery(10 * kMillisecond, 8 * kMillisecond, [] {});
  sim.RunFor(kSecond);
  const obs::MetricsSnapshot snap = Registry::Global().TakeSnapshot();
  const obs::SnapshotEntry* batch = snap.Find("dispatcher_batch_size");
  const obs::SnapshotEntry* dispatched = snap.Find("dispatcher_dispatched");
  ASSERT_NE(batch, nullptr);
  ASSERT_NE(dispatched, nullptr);
  EXPECT_GT(batch->count, 0u);
  EXPECT_EQ(batch->sum, static_cast<uint64_t>(dispatched->value));
  EXPECT_EQ(static_cast<uint64_t>(dispatched->value),
            dispatcher.dispatched());
}

TEST_F(ObsTest, SimulatorReportsEventsAndQueueDepth) {
  Simulator sim(1);
  for (int i = 0; i < 50; ++i) {
    sim.ScheduleAfter(i * kMillisecond, [] {});
  }
  sim.Run();
  const obs::MetricsSnapshot snap = Registry::Global().TakeSnapshot();
  const obs::SnapshotEntry* events = snap.Find("sim_events_executed");
  const obs::SnapshotEntry* hwm = snap.Find("sim_event_queue_depth_hwm");
  ASSERT_NE(events, nullptr);
  ASSERT_NE(hwm, nullptr);
  EXPECT_EQ(events->value, 50);
  EXPECT_EQ(hwm->value, 50);
}

// --- Renderers ---

TEST_F(ObsTest, RenderersAgreeOnValues) {
  Registry reg;
  reg.GetCounter("requests", {{"code", "200"}}, "Requests served")->Inc(5);
  reg.GetGauge("depth")->Set(-3);
  Histogram* h = reg.GetHistogram("latency", {}, "Op latency");
  h->Record(3);
  h->Record(5);
  const obs::MetricsSnapshot snap = reg.TakeSnapshot();

  const std::string text = obs::RenderText(snap);
  EXPECT_NE(text.find("requests{code=\"200\"}"), std::string::npos);
  EXPECT_NE(text.find("5"), std::string::npos);
  EXPECT_NE(text.find("-3"), std::string::npos);
  EXPECT_NE(text.find("count=2"), std::string::npos);

  const std::string json = obs::RenderJson(snap);
  EXPECT_NE(json.find("\"name\":\"requests\""), std::string::npos);
  EXPECT_NE(json.find("\"labels\":{\"code\":\"200\"}"), std::string::npos);
  EXPECT_NE(json.find("\"type\":\"histogram\",\"count\":2,\"sum\":8"),
            std::string::npos);

  const std::string prom = obs::RenderPrometheus(snap);
  EXPECT_NE(prom.find("# TYPE requests_total counter"), std::string::npos);
  EXPECT_NE(prom.find("requests_total{code=\"200\"} 5"), std::string::npos);
  EXPECT_NE(prom.find("# TYPE depth gauge"), std::string::npos);
  EXPECT_NE(prom.find("depth -3"), std::string::npos);
  EXPECT_NE(prom.find("# HELP latency Op latency"), std::string::npos);
  EXPECT_NE(prom.find("latency_bucket{le=\"4\"} 1"), std::string::npos);
  EXPECT_NE(prom.find("latency_bucket{le=\"8\"} 2"), std::string::npos);
  EXPECT_NE(prom.find("latency_bucket{le=\"+Inf\"} 2"), std::string::npos);
  EXPECT_NE(prom.find("latency_sum 8"), std::string::npos);
  EXPECT_NE(prom.find("latency_count 2"), std::string::npos);
}

TEST_F(ObsTest, SnapshotOrderIsSortedAndStable) {
  Registry reg;
  reg.GetCounter("zebra");
  reg.GetCounter("alpha");
  reg.GetCounter("mid", {{"l", "b"}});
  reg.GetCounter("mid", {{"l", "a"}});
  const obs::MetricsSnapshot snap = reg.TakeSnapshot();
  ASSERT_EQ(snap.entries.size(), 4u);
  EXPECT_EQ(snap.entries[0].name, "alpha");
  EXPECT_EQ(snap.entries[1].name, "mid");
  EXPECT_EQ(snap.entries[1].labels[0].second, "a");
  EXPECT_EQ(snap.entries[2].labels[0].second, "b");
  EXPECT_EQ(snap.entries[3].name, "zebra");
}

// --- JSON label escaping ---

TEST_F(ObsTest, JsonLabelValuesAreEscaped) {
  Registry reg;
  // Backslashes, quotes, a newline, a tab and a raw control byte: every
  // class the JSON escaper must neutralise.
  reg.GetCounter("esc_total", {{"path", "C:\\temp\\\"quoted\"\nline\tcol\x01"}})
      ->Inc(3);
  const std::string json = obs::RenderJson(reg.TakeSnapshot());
  EXPECT_NE(json.find("C:\\\\temp\\\\\\\"quoted\\\"\\nline\\tcol\\u0001"),
            std::string::npos)
      << json;
  // No raw newline or control byte may survive: either would break a
  // strict JSON consumer.
  EXPECT_EQ(json.find('\n'), std::string::npos) << json;
  EXPECT_EQ(json.find('\x01'), std::string::npos) << json;
  EXPECT_EQ(json.find('\t'), std::string::npos) << json;
}

// --- the Prometheus text parser ---

TEST_F(ObsTest, ParsePrometheusTextReadsSamplesAndDecodesEscapes) {
  const std::string text =
      "# HELP ops Operations.\n"
      "# TYPE ops counter\n"
      "ops_total{queue=\"heap\",path=\"C:\\\\x\\n\\\"q\\\"\"} 42\n"
      "depth -3.5\n";
  std::vector<obs::PromSample> samples;
  std::string error;
  ASSERT_TRUE(obs::ParsePrometheusText(text, &samples, &error)) << error;
  ASSERT_EQ(samples.size(), 2u);
  EXPECT_EQ(samples[0].name, "ops_total");
  ASSERT_EQ(samples[0].labels.size(), 2u);
  EXPECT_EQ(samples[0].labels[0].second, "heap");
  EXPECT_EQ(samples[0].labels[1].second, "C:\\x\n\"q\"");
  EXPECT_EQ(samples[0].value, 42.0);
  EXPECT_EQ(samples[1].name, "depth");
  EXPECT_EQ(samples[1].value, -3.5);
}

TEST_F(ObsTest, ParsePrometheusTextRejectsMalformedLines) {
  std::vector<obs::PromSample> samples;
  std::string error;
  EXPECT_FALSE(obs::ParsePrometheusText("ops{unclosed 3\n", &samples, &error));
  EXPECT_FALSE(obs::ParsePrometheusText("ops not-a-number\n", &samples, &error));
  EXPECT_FALSE(obs::ParsePrometheusText("{} 3\n", &samples, &error));
  EXPECT_NE(error.find("line 1"), std::string::npos) << error;
}

// --- the scrape endpoint ---

TEST_F(ObsTest, ScrapeServerServesParseableMetricsOverHttp) {
  Registry reg;
  reg.GetCounter("scrape_ops", {{"queue", "heap"}})->Inc(9);
  reg.GetGauge("scrape_depth")->Set(-4);
  const std::string rendered = obs::RenderPrometheus(reg.TakeSnapshot());
  obs::ScrapeServer server([&rendered] { return rendered; });
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  ASSERT_NE(server.port(), 0);

  int status = 0;
  std::string body;
  ASSERT_TRUE(
      obs::HttpGet("127.0.0.1", server.port(), "/metrics", &status, &body, &error))
      << error;
  EXPECT_EQ(status, 200);
  EXPECT_EQ(body, rendered);

  // The served text must round-trip through a strict exposition parser —
  // the curl-equivalent proof the endpoint speaks real Prometheus.
  std::vector<obs::PromSample> samples;
  ASSERT_TRUE(obs::ParsePrometheusText(body, &samples, &error)) << error;
  bool found = false;
  for (const obs::PromSample& s : samples) {
    if (s.name == "scrape_ops_total" && !s.labels.empty() &&
        s.labels[0].second == "heap" && s.value == 9.0) {
      found = true;
    }
  }
  EXPECT_TRUE(found) << body;
  server.Stop();
}

TEST_F(ObsTest, ScrapeServerSurvivesAnIdleClient) {
  obs::ScrapeServer::Options options;
  options.io_timeout_ms = 100;
  obs::ScrapeServer server([] { return std::string("x 1\n"); }, options);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  // Connect and send nothing. Without a receive timeout this parks the
  // serving thread in recv() forever and starves every later scrape.
  const int idle = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(idle, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server.port());
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(::connect(idle, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  // A real scrape queued behind the idle client must still be answered.
  int status = 0;
  std::string body;
  ASSERT_TRUE(
      obs::HttpGet("127.0.0.1", server.port(), "/metrics", &status, &body, &error))
      << error;
  EXPECT_EQ(status, 200);
  EXPECT_EQ(body, "x 1\n");
  ::close(idle);
  server.Stop();
}

TEST_F(ObsTest, ScrapeServerAnswersHeadWithHeadersOnly) {
  // Prometheus and load balancers probe with HEAD; RFC 9110 says the
  // response carries the headers a GET would — Content-Length included —
  // with no body.
  const std::string rendered = "probe_ok 1\nprobe_depth -4\n";
  obs::ScrapeServer server([&rendered] { return rendered; });
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  int status = 0;
  std::string headers;
  std::string body;
  ASSERT_TRUE(obs::HttpRequest("HEAD", "127.0.0.1", server.port(), "/metrics",
                               &status, &headers, &body, &error))
      << error;
  EXPECT_EQ(status, 200);
  EXPECT_TRUE(body.empty()) << body;
  EXPECT_NE(headers.find("Content-Length: " + std::to_string(rendered.size())),
            std::string::npos)
      << headers;

  // And the GET the HEAD promised: the body whose size HEAD advertised,
  // still strict-exposition parseable.
  ASSERT_TRUE(
      obs::HttpGet("127.0.0.1", server.port(), "/metrics", &status, &body, &error))
      << error;
  EXPECT_EQ(status, 200);
  EXPECT_EQ(body, rendered);
  std::vector<obs::PromSample> samples;
  ASSERT_TRUE(obs::ParsePrometheusText(body, &samples, &error)) << error;
  ASSERT_EQ(samples.size(), 2u);
  EXPECT_EQ(samples[0].name, "probe_ok");
  server.Stop();
}

TEST_F(ObsTest, ScrapeServerRejectsOtherMethodsWithAllowHeader) {
  obs::ScrapeServer server([] { return std::string("x 1\n"); });
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  for (const char* method : {"POST", "PUT", "DELETE"}) {
    int status = 0;
    std::string headers;
    std::string body;
    ASSERT_TRUE(obs::HttpRequest(method, "127.0.0.1", server.port(), "/metrics",
                                 &status, &headers, &body, &error))
        << method << ": " << error;
    EXPECT_EQ(status, 405) << method;
    EXPECT_NE(headers.find("Allow: GET, HEAD"), std::string::npos)
        << method << ": " << headers;
  }
  server.Stop();
}

TEST_F(ObsTest, ScrapeServerRejectsUnknownPaths) {
  obs::ScrapeServer server([] { return std::string("x 1\n"); });
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  int status = 0;
  std::string body;
  ASSERT_TRUE(
      obs::HttpGet("127.0.0.1", server.port(), "/nope", &status, &body, &error))
      << error;
  EXPECT_EQ(status, 404);
  server.Stop();
}

}  // namespace
}  // namespace tempo

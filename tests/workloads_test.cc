// Workload-level tests: each modelled workload must reproduce the shape
// properties the paper reports for it (Tables 1-2, Figures 1-7).

#include <gtest/gtest.h>

#include <set>

#include "src/analysis/classify.h"
#include "src/analysis/histogram.h"
#include "src/analysis/rates.h"
#include "src/analysis/summary.h"
#include "src/trace/file.h"
#include "src/workloads/linux_workloads.h"
#include "src/workloads/vista_workloads.h"

namespace tempo {
namespace {

WorkloadOptions ShortRun() {
  WorkloadOptions options;
  options.duration = 3 * kMinute;
  options.seed = 11;
  return options;
}

bool RecordsTimeOrdered(const std::vector<TraceRecord>& records) {
  for (size_t i = 1; i < records.size(); ++i) {
    if (records[i].timestamp < records[i - 1].timestamp) {
      return false;
    }
  }
  return true;
}

TraceSummary SummaryOf(const TraceRun& run) {
  SummaryPass pass(run.label);
  pass.Accumulate(run.records);
  return pass.Result();
}

// Sanity invariants every trace must satisfy.
void CheckTraceInvariants(const TraceRun& run) {
  ASSERT_FALSE(run.records.empty());
  EXPECT_TRUE(RecordsTimeOrdered(run.records));
  const TraceSummary s = SummaryOf(run);
  EXPECT_GT(s.timers, 0u);
  EXPECT_GT(s.concurrency, 0u);
  // Every ended episode had a set: expired + canceled <= set (+ blocks).
  EXPECT_LE(s.expired + s.canceled, s.set + s.concurrency);
  EXPECT_EQ(s.accesses, s.user_space + s.kernel);
}

TEST(LinuxWorkloadTest, IdleUserSpaceDominatesAndCancelsExceedExpiries) {
  TraceRun run = RunLinuxIdle(ShortRun());
  CheckTraceInvariants(run);
  const TraceSummary s = SummaryOf(run);
  // Table 1 Idle: user-space accesses dominate (X/icewm select churn), and
  // "on Linux more timers are canceled [than expire]".
  EXPECT_GT(s.user_space, s.kernel);
  EXPECT_GT(s.canceled, s.expired);
}

TEST(LinuxWorkloadTest, IdleContainsSelectCountdowns) {
  TraceRun run = RunLinuxIdle(ShortRun());
  ClassifyPass pass;
  pass.Accumulate(run.records);
  const auto classes = pass.Result();
  bool countdown = false;
  for (const auto& c : classes) {
    countdown = countdown || c.pattern == UsagePattern::kCountdown;
  }
  EXPECT_TRUE(countdown) << "X/icewm select countdowns missing";
}

TEST(LinuxWorkloadTest, IdleShowsPaperKernelValues) {
  TraceRun run = RunLinuxIdle(ShortRun());
  HistogramOptions options;
  options.min_percent = 0.5;
  HistogramPass pass(options);
  pass.Accumulate(run.records);
  const ValueHistogram h = pass.Result();
  std::set<int64_t> jiffy_values;
  for (const auto& bucket : h.buckets) {
    if (bucket.jiffies >= 0) {
      jiffy_values.insert(bucket.jiffies);
    }
  }
  // The signature values of Figure 3 / Table 3.
  EXPECT_TRUE(jiffy_values.count(62)) << "0.248 s USB poll";
  EXPECT_TRUE(jiffy_values.count(125)) << "0.5 s clocksource watchdog";
  EXPECT_TRUE(jiffy_values.count(250)) << "1 s workqueue";
  EXPECT_TRUE(jiffy_values.count(500)) << "2 s";
}

TEST(LinuxWorkloadTest, FirefoxDominatedByVeryShortUserTimers) {
  TraceRun run = RunLinuxFirefox(ShortRun());
  CheckTraceInvariants(run);
  uint64_t short_user_sets = 0;
  uint64_t user_sets = 0;
  for (const auto& r : run.records) {
    if (r.op == TimerOp::kSet && r.is_user()) {
      ++user_sets;
      if (r.timeout <= 12 * kMillisecond) {
        ++short_user_sets;
      }
    }
  }
  // "a large volume of very short timers: 4, 8 or 10 ms, or 1, 2 or 3
  //  jiffies" — the soft-real-time Flash behaviour.
  EXPECT_GT(user_sets, 0u);
  EXPECT_GT(static_cast<double>(short_user_sets), 0.4 * static_cast<double>(user_sets));
}

TEST(LinuxWorkloadTest, FirefoxBusierThanIdle) {
  TraceRun idle = RunLinuxIdle(ShortRun());
  TraceRun firefox = RunLinuxFirefox(ShortRun());
  EXPECT_GT(firefox.records.size(), 3 * idle.records.size());
}

TEST(LinuxWorkloadTest, SkypeShowsHalfSecondConstants) {
  TraceRun run = RunLinuxSkype(ShortRun());
  CheckTraceInvariants(run);
  HistogramOptions options;
  options.user_only = true;
  options.min_percent = 2.0;
  HistogramPass pass(options);
  pass.Accumulate(run.records);
  const ValueHistogram h = pass.Result();
  bool saw_0 = false;
  bool saw_4999 = false;
  bool saw_500 = false;
  for (const auto& bucket : h.buckets) {
    saw_0 = saw_0 || bucket.value == 0;
    saw_4999 = saw_4999 || bucket.value == FromMilliseconds(499.9);
    saw_500 = saw_500 || bucket.value == 500 * kMillisecond;
  }
  // Figure 6: Skype "dominated by constant timeouts of 0, 0.4999 and 0.5".
  EXPECT_TRUE(saw_0);
  EXPECT_TRUE(saw_4999);
  EXPECT_TRUE(saw_500);
}

TEST(LinuxWorkloadTest, WebserverKernelAccessesDominate) {
  WorkloadOptions options = ShortRun();
  options.duration = 5 * kMinute;
  TraceRun run = RunLinuxWebserver(options);
  CheckTraceInvariants(run);
  const TraceSummary s = SummaryOf(run);
  // Table 1 Webserver: the only workload where kernel accesses dominate
  // (per-connection TCP timers).
  EXPECT_GT(s.kernel, s.user_space);
}

TEST(LinuxWorkloadTest, WebserverShowsTcpSignatureValues) {
  WorkloadOptions options = ShortRun();
  options.duration = 5 * kMinute;
  TraceRun run = RunLinuxWebserver(options);
  HistogramOptions hist;
  hist.min_percent = 0.5;
  HistogramPass pass(hist);
  pass.Accumulate(run.records);
  const ValueHistogram h = pass.Result();
  std::set<int64_t> jiffies;
  for (const auto& bucket : h.buckets) {
    jiffies.insert(bucket.jiffies);
  }
  EXPECT_TRUE(jiffies.count(51)) << "0.204 s TCP retransmit";
  EXPECT_TRUE(jiffies.count(10)) << "0.04 s delayed ACK";
  EXPECT_TRUE(jiffies.count(750)) << "3 s SYN-ACK";
}

TEST(LinuxWorkloadTest, WebserverHasFewTimerIdentitiesDespiteManyConnections) {
  WorkloadOptions options = ShortRun();
  options.duration = 5 * kMinute;
  TraceRun run = RunLinuxWebserver(options);
  const TraceSummary s = SummaryOf(run);
  // Table 1: 30000 connections but only ~100 timer structs (slab reuse).
  EXPECT_LT(s.timers, 200u);
  EXPECT_GT(s.set, 1000u);
}

TEST(LinuxWorkloadTest, DeterministicGivenSeed) {
  TraceRun a = RunLinuxIdle(ShortRun());
  TraceRun b = RunLinuxIdle(ShortRun());
  ASSERT_EQ(a.records.size(), b.records.size());
  for (size_t i = 0; i < a.records.size(); i += 97) {
    EXPECT_EQ(a.records[i].timestamp, b.records[i].timestamp);
    EXPECT_EQ(a.records[i].timer, b.records[i].timer);
    EXPECT_EQ(static_cast<int>(a.records[i].op), static_cast<int>(b.records[i].op));
  }
}

TEST(LinuxWorkloadTest, DifferentSeedsDiffer) {
  WorkloadOptions a_options = ShortRun();
  WorkloadOptions b_options = ShortRun();
  b_options.seed = 99;
  TraceRun a = RunLinuxIdle(a_options);
  TraceRun b = RunLinuxIdle(b_options);
  EXPECT_NE(a.records.size(), b.records.size());
}

TEST(VistaWorkloadTest, IdleExpiriesDominateCancellations) {
  TraceRun run = RunVistaIdle(ShortRun());
  CheckTraceInvariants(run);
  const TraceSummary s = SummaryOf(run);
  // Table 2: "on Vista timers more often expire".
  EXPECT_GT(s.expired, 4 * s.canceled);
}

TEST(VistaWorkloadTest, IdleKernelAccessesDominate) {
  TraceRun run = RunVistaIdle(ShortRun());
  const TraceSummary s = SummaryOf(run);
  EXPECT_GT(s.kernel, s.user_space);
}

TEST(VistaWorkloadTest, IdleHasMoreTimerIdentitiesThanLinux) {
  TraceRun vista = RunVistaIdle(ShortRun());
  TraceRun linux_run = RunLinuxIdle(ShortRun());
  // Tables 1-2: Vista allocates ~3x the timer structures (144 vs 47),
  // because KTIMERs are created per use.
  const uint64_t vista_timers = SummaryOf(vista).timers;
  const uint64_t linux_timers = SummaryOf(linux_run).timers;
  EXPECT_GT(vista_timers, linux_timers);
}

TEST(VistaWorkloadTest, FirefoxIsTheBusiestWorkload) {
  TraceRun idle = RunVistaIdle(ShortRun());
  TraceRun firefox = RunVistaFirefox(ShortRun());
  EXPECT_GT(firefox.records.size(), 3 * idle.records.size());
}

TEST(VistaWorkloadTest, FirefoxSubTickTimersDeliveredLate) {
  TraceRun run = RunVistaFirefox(ShortRun());
  // Sub-millisecond timeouts are delivered at clock-interrupt granularity:
  // a large multiple of their nominal duration (Figures 8-11 cut-off).
  uint64_t late = 0;
  uint64_t sub_ms_sets = 0;
  std::map<TimerId, TraceRecord> open_sets;
  for (const auto& r : run.records) {
    if (r.op == TimerOp::kSet && r.timeout > 0 && r.timeout <= kMillisecond) {
      open_sets[r.timer] = r;
      ++sub_ms_sets;
    } else if (r.op == TimerOp::kExpire) {
      auto it = open_sets.find(r.timer);
      if (it != open_sets.end()) {
        if (r.timestamp - it->second.timestamp >
            static_cast<SimDuration>(2.5 * static_cast<double>(it->second.timeout))) {
          ++late;
        }
        open_sets.erase(it);
      }
    }
  }
  ASSERT_GT(sub_ms_sets, 100u);
  EXPECT_GT(static_cast<double>(late), 0.9 * static_cast<double>(sub_ms_sets));
}

TEST(VistaWorkloadTest, WebserverLacksLinuxKeepalive) {
  WorkloadOptions options = ShortRun();
  TraceRun vista = RunVistaWebserver(options);
  // The paper: the Vista webserver trace "does not include the 7200 second
  // TCP keepalive timer that is used by Linux" (private timing wheels).
  for (const auto& r : vista.records) {
    if (r.op == TimerOp::kSet) {
      EXPECT_LT(r.timeout, 7000 * kSecond);
    }
  }
  TraceRun linux_run = RunLinuxWebserver(options);
  bool linux_has_keepalive = false;
  for (const auto& r : linux_run.records) {
    if (r.op == TimerOp::kSet && r.timeout > 7000 * kSecond) {
      linux_has_keepalive = true;
      break;
    }
  }
  EXPECT_TRUE(linux_has_keepalive);
}

TEST(VistaWorkloadTest, DeferredPatternPresentInIdle) {
  WorkloadOptions options = ShortRun();
  options.duration = 10 * kMinute;  // enough bursts to classify
  TraceRun run = RunVistaIdle(options);
  ClassifyPass pass;
  pass.Accumulate(run.records);
  const auto classes = pass.Result();
  bool registry_deferred = false;
  for (const auto& c : classes) {
    if (c.pattern == UsagePattern::kDeferred &&
        run.callsites().Name(c.callsite) == "nt/registry_lazy_close") {
      registry_deferred = true;
    }
  }
  EXPECT_TRUE(registry_deferred);
}

TEST(VistaWorkloadTest, DesktopOutlookBurstsAboveBaseline) {
  WorkloadOptions options = ShortRun();
  options.duration = 2 * kMinute;
  TraceRun run = RunVistaDesktop(options);
  RateGrouping grouping;
  grouping.pid_labels[run.pids.at("outlook.exe")] = "Outlook";
  RateOptions rate_options;
  rate_options.end = options.duration;
  RatesPass pass(grouping, rate_options);
  pass.Accumulate(run.records);
  const auto series = pass.Result();
  const RateSeries* outlook = nullptr;
  const RateSeries* kernel = nullptr;
  for (const auto& s : series) {
    if (s.label == "Outlook") {
      outlook = &s;
    } else if (s.label == "Kernel") {
      kernel = &s;
    }
  }
  ASSERT_NE(outlook, nullptr);
  ASSERT_NE(kernel, nullptr);
  uint64_t peak = 0;
  uint64_t total = 0;
  for (uint64_t v : outlook->per_window) {
    peak = std::max(peak, v);
    total += v;
  }
  const double mean = static_cast<double>(total) /
                      static_cast<double>(outlook->per_window.size());
  // Figure 1: ~70 sets/s baseline with storms far above it.
  EXPECT_GT(mean, 30.0);
  EXPECT_GT(static_cast<double>(peak), 5.0 * mean);
  // And the kernel line sits around a thousand sets per second.
  uint64_t kernel_total = 0;
  for (uint64_t v : kernel->per_window) {
    kernel_total += v;
  }
  const double kernel_mean = static_cast<double>(kernel_total) /
                             static_cast<double>(kernel->per_window.size());
  EXPECT_GT(kernel_mean, 500.0);
  EXPECT_LT(kernel_mean, 2500.0);
}

TEST(WorkloadAblationTest, DynticksReducesLinuxIdleTicks) {
  WorkloadOptions base = ShortRun();
  TraceRun periodic = RunLinuxIdle(base);
  WorkloadOptions dyn = base;
  dyn.dynticks = true;
  TraceRun dynticks = RunLinuxIdle(dyn);
  EXPECT_LT(dynticks.linux_kernel->ticks_serviced(),
            periodic.linux_kernel->ticks_serviced() / 2);
}

TEST(WorkloadAblationTest, RoundJiffiesStillProducesWholeSecondExpiries) {
  WorkloadOptions options = ShortRun();
  options.round_jiffies = true;
  TraceRun run = RunLinuxIdle(options);
  uint64_t rounded = 0;
  for (const auto& r : run.records) {
    if (r.op == TimerOp::kSet && (r.flags & kFlagRounded) != 0) {
      ++rounded;
      EXPECT_EQ(r.expiry % kSecond, 0) << "rounded timer not on whole second";
    }
  }
  EXPECT_GT(rounded, 0u);
}

}  // namespace
}  // namespace tempo

namespace tempo {
namespace {

// Property sweep: every workload, several seeds — the structural trace
// invariants must hold regardless of the random stream.
using WorkloadRunner = TraceRun (*)(const WorkloadOptions&);

struct NamedWorkload {
  const char* name;
  WorkloadRunner run;
};

// gtest prints parameters into the test list; the name keeps it stable
// across builds, where the default would print the struct's bytes.
void PrintTo(const NamedWorkload& workload, std::ostream* os) { *os << workload.name; }

class WorkloadSeedSweep
    : public ::testing::TestWithParam<std::tuple<NamedWorkload, uint64_t>> {};

TEST_P(WorkloadSeedSweep, TraceInvariantsHoldForEverySeed) {
  const auto& [workload, seed] = GetParam();
  WorkloadOptions options;
  options.duration = 90 * kSecond;
  options.seed = seed;
  TraceRun run = workload.run(options);
  ASSERT_FALSE(run.records.empty());
  EXPECT_TRUE(RecordsTimeOrdered(run.records));
  const TraceSummary s = SummaryOf(run);
  EXPECT_GT(s.set, 0u);
  EXPECT_EQ(s.accesses, s.user_space + s.kernel);
  EXPECT_LE(s.expired + s.canceled, s.set + s.concurrency);
  // Timestamps stay inside the simulated window.
  EXPECT_LE(run.records.back().timestamp, options.duration);
  // No record may carry a negative timeout.
  for (const auto& r : run.records) {
    ASSERT_GE(r.timeout, 0) << "negative timeout in " << workload.name;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, WorkloadSeedSweep,
    ::testing::Combine(
        ::testing::Values(NamedWorkload{"linux_idle", RunLinuxIdle},
                          NamedWorkload{"linux_skype", RunLinuxSkype},
                          NamedWorkload{"linux_firefox", RunLinuxFirefox},
                          NamedWorkload{"linux_webserver", RunLinuxWebserver},
                          NamedWorkload{"vista_idle", RunVistaIdle},
                          NamedWorkload{"vista_skype", RunVistaSkype},
                          NamedWorkload{"vista_firefox", RunVistaFirefox},
                          NamedWorkload{"vista_webserver", RunVistaWebserver},
                          NamedWorkload{"vista_desktop", RunVistaDesktop}),
        ::testing::Values(1u, 77u, 20260705u)),
    [](const auto& info) {
      return std::string(std::get<0>(info.param).name) + "_seed" +
             std::to_string(std::get<1>(info.param));
    });

// Golden digests: every workload runs one simulated minute at seed 2008;
// its trace, serialized as v2, as v3 and as v3 with the TempoLz block
// codec, must hash (FNV-1a 64) to the recorded constants, and the
// simulator must have executed the recorded number of events. Unlike the
// in-binary determinism checks above, these constants pin the traces
// across commits: a change to the simulator, the kernels, the workloads,
// the v2 codec or the v3 stripe-codec choice that moves one byte of one
// file fails here. Re-record them only for an intended behaviour change.
struct GoldenTrace {
  NamedWorkload workload;
  uint64_t digest;
  uint64_t events;
  uint64_t v3_digest;
  uint64_t v3_lz_digest;
};

uint64_t Fnv1a64(const std::vector<uint8_t>& bytes) {
  uint64_t hash = 0xcbf29ce484222325ULL;
  for (const uint8_t b : bytes) {
    hash ^= b;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

void PrintTo(const GoldenTrace& golden, std::ostream* os) { *os << golden.workload.name; }

class WorkloadGoldenDigest : public ::testing::TestWithParam<GoldenTrace> {};

TEST_P(WorkloadGoldenDigest, TraceMatchesRecordedDigest) {
  const GoldenTrace& golden = GetParam();
  WorkloadOptions options;
  options.duration = kMinute;
  options.seed = 2008;
  TraceRun run = golden.workload.run(options);
  TraceWriteOptions v2;
  v2.version = kTraceFileVersionChunked;
  const uint64_t digest = Fnv1a64(SerializeTrace(run.records, run.callsites(), v2));
  EXPECT_EQ(digest, golden.digest)
      << golden.workload.name << " trace digest 0x" << std::hex << digest;
  EXPECT_EQ(run.sim->events_executed(), golden.events) << golden.workload.name;

  TraceWriteOptions v3;
  v3.version = kTraceFileVersionColumnar;
  const uint64_t v3_digest = Fnv1a64(SerializeTrace(run.records, run.callsites(), v3));
  EXPECT_EQ(v3_digest, golden.v3_digest)
      << golden.workload.name << " v3 digest 0x" << std::hex << v3_digest;
  v3.block_codec = BlockCodecId::kTempoLz;
  const uint64_t lz_digest = Fnv1a64(SerializeTrace(run.records, run.callsites(), v3));
  EXPECT_EQ(lz_digest, golden.v3_lz_digest)
      << golden.workload.name << " v3+lz digest 0x" << std::hex << lz_digest;
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, WorkloadGoldenDigest,
    ::testing::Values(
        GoldenTrace{{"linux_idle", RunLinuxIdle}, 0xa4ffb42d73ff4974ULL, 16230,
                    0xaa675643cb636a04ULL, 0x839e8ce591810303ULL},
        GoldenTrace{{"linux_skype", RunLinuxSkype}, 0xa787f751b9b52b66ULL, 18832,
                    0x917687f7edffcbd6ULL, 0x4b29af528f818265ULL},
        GoldenTrace{{"linux_firefox", RunLinuxFirefox}, 0xd21d4091660aa546ULL, 32676,
                    0x0b034764d2e34cf7ULL, 0x1cecd44cf9af03f6ULL},
        GoldenTrace{{"linux_webserver", RunLinuxWebserver}, 0x12320e9b4d9845fdULL, 26438,
                    0xbb9fcc473c73039fULL, 0x828a7421b975bf38ULL},
        GoldenTrace{{"vista_idle", RunVistaIdle}, 0xaff6365deab9f306ULL, 4342,
                    0xc601d1361b817e68ULL, 0x4ffbdb633337283bULL},
        GoldenTrace{{"vista_skype", RunVistaSkype}, 0xa42920e20c6fcddeULL, 5639,
                    0x7617c02818b76f62ULL, 0x4d430b89de66bf81ULL},
        GoldenTrace{{"vista_firefox", RunVistaFirefox}, 0xfbc478564dc1ef73ULL, 13237,
                    0x83cf7add1106ec37ULL, 0x39b3ab4b55796ef0ULL},
        GoldenTrace{{"vista_webserver", RunVistaWebserver}, 0x236008ede93e148bULL, 4709,
                    0x8031623359de0ad9ULL, 0x845491cada0563a6ULL},
        GoldenTrace{{"vista_desktop", RunVistaDesktop}, 0x824d89eca031f294ULL, 26394,
                    0x935b54088c038146ULL, 0x29df8dabf423657eULL}),
    [](const auto& test) { return std::string(test.param.workload.name); });

}  // namespace
}  // namespace tempo

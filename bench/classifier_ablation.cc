// E20 — Section 4.1.1: robustness of the usage-pattern classifier to the
// variance allowance (the paper's experimentally determined 2 ms).
//
// Synthetic traces with known ground-truth patterns are jittered by
// increasing amounts; the bench reports classification accuracy as a
// function of the variance knob, showing why ~2 ms (half a jiffy) is the
// sweet spot at HZ=250.

#include <cstdio>
#include <vector>

#include "src/analysis/classify.h"
#include "src/sim/random.h"

namespace tempo {
namespace {

struct Labeled {
  UsagePattern truth;
  std::vector<TraceRecord> records;
};

TraceRecord Rec(SimTime at, TimerOp op, TimerId timer, SimDuration timeout = 0) {
  TraceRecord r;
  r.timestamp = at;
  r.op = op;
  r.timer = timer;
  r.timeout = timeout;
  r.expiry = op == TimerOp::kSet ? at + timeout : 0;
  return r;
}

// Builds one trace with 40 instances of each ground-truth pattern, with
// set-value jitter and reset-gap jitter of up to `jitter`.
std::vector<Labeled> BuildGroundTruth(SimDuration jitter, uint64_t seed) {
  Rng rng(seed);
  std::vector<Labeled> out;
  TimerId next_timer = 1;
  auto jittered = [&](SimDuration v) {
    return v - static_cast<SimDuration>(rng.Uniform(0, static_cast<double>(jitter)));
  };

  for (int instance = 0; instance < 40; ++instance) {
    {  // periodic: expire, immediately re-set
      Labeled l;
      l.truth = UsagePattern::kPeriodic;
      const TimerId id = next_timer++;
      SimTime t = 0;
      for (int i = 0; i < 12; ++i) {
        l.records.push_back(Rec(t, TimerOp::kSet, id, jittered(kSecond)));
        t += kSecond;
        l.records.push_back(Rec(t, TimerOp::kExpire, id));
        t += static_cast<SimDuration>(rng.Uniform(0, static_cast<double>(jitter)));
      }
      out.push_back(std::move(l));
    }
    {  // watchdog: re-set before expiry
      Labeled l;
      l.truth = UsagePattern::kWatchdog;
      const TimerId id = next_timer++;
      SimTime t = 0;
      for (int i = 0; i < 12; ++i) {
        l.records.push_back(Rec(t, TimerOp::kSet, id, jittered(60 * kSecond)));
        t += 10 * kSecond;
      }
      out.push_back(std::move(l));
    }
    {  // timeout: canceled shortly after set, re-set later
      Labeled l;
      l.truth = UsagePattern::kTimeout;
      const TimerId id = next_timer++;
      SimTime t = 0;
      for (int i = 0; i < 12; ++i) {
        l.records.push_back(Rec(t, TimerOp::kSet, id, jittered(30 * kSecond)));
        t += static_cast<SimDuration>(rng.Uniform(0.005, 0.1) * kSecond);
        l.records.push_back(Rec(t, TimerOp::kCancel, id));
        t += 2 * kSecond;
      }
      out.push_back(std::move(l));
    }
    {  // delay: expires, re-set after a rest
      Labeled l;
      l.truth = UsagePattern::kDelay;
      const TimerId id = next_timer++;
      SimTime t = 0;
      for (int i = 0; i < 12; ++i) {
        l.records.push_back(Rec(t, TimerOp::kSet, id, jittered(kSecond)));
        t += kSecond;
        l.records.push_back(Rec(t, TimerOp::kExpire, id));
        t += 500 * kMillisecond;
      }
      out.push_back(std::move(l));
    }
  }
  return out;
}

double Accuracy(SimDuration trace_jitter, SimDuration variance, uint64_t seed) {
  const auto truth = BuildGroundTruth(trace_jitter, seed);
  ClassifyOptions options;
  options.variance = variance;
  size_t correct = 0;
  size_t total = 0;
  for (const Labeled& l : truth) {
    ClassifyPass pass(options);
    pass.Accumulate(l.records);
    for (const auto& c : pass.Result()) {
      ++total;
      correct += c.pattern == l.truth ? 1 : 0;
    }
  }
  return total == 0 ? 0.0 : 100.0 * static_cast<double>(correct) /
                                static_cast<double>(total);
}

}  // namespace
}  // namespace tempo

int main() {
  using namespace tempo;
  std::printf("==============================================================\n");
  std::printf("Classifier variance ablation (Section 4.1.1)\n");
  std::printf("==============================================================\n");
  std::printf(
      "paper: a variance of 2 ms (determined from the fixed-period workqueue\n"
      "timer) absorbs kernel conversion jitter without merging distinct\n"
      "values. Accuracy vs variance, for traces with increasing jitter:\n\n");

  static constexpr SimDuration kVariances[] = {
      0, 500 * kMicrosecond, kMillisecond, 2 * kMillisecond, 4 * kMillisecond,
      10 * kMillisecond, 50 * kMillisecond};
  static constexpr SimDuration kJitters[] = {0, kMillisecond, 2 * kMillisecond,
                                             4 * kMillisecond};

  std::printf("%-18s", "variance \\ jitter");
  for (SimDuration j : kJitters) {
    std::printf("%11s", FormatDuration(j).c_str());
  }
  std::printf("\n");
  for (SimDuration v : kVariances) {
    std::printf("%-18s", FormatDuration(v).c_str());
    for (SimDuration j : kJitters) {
      std::printf("%10.1f%%", Accuracy(j, v, 42));
    }
    std::printf("\n");
  }
  std::printf(
      "\nreading: variance must be at least the trace jitter (~2 ms at "
      "HZ=250)\nfor full accuracy; far larger windows eventually merge "
      "distinct behaviours.\n");
  return 0;
}

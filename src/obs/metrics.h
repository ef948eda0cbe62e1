// Self-metrics for the tempo runtime.
//
// The paper's method stands on instrumentation whose own cost was measured
// before the traces were trusted (236 cycles/record, <0.1% CPU, Section
// 3.2). This module turns the same discipline on tempo itself: monotonic
// counters, gauges and log-scale latency histograms registered by name, so
// the timer queues, the dispatcher, the trace sinks, the simulator core and
// the protocol stacks can report what they are doing and how long it takes.
//
// Design constraints, in order:
//   1. Hot-path cost. The simulator executes millions of events per run;
//      an instrument is a pre-resolved pointer and an update is one or two
//      integer operations. Name lookup happens once, at construction.
//   2. Determinism. Metrics are pure observation: nothing here feeds back
//      into simulation behaviour, and the probe clock is pluggable so sim
//      runs can use virtual cycles instead of the TSC (see probe.h).
//   3. No atomics on the hot path. Instruments are not internally
//      synchronised: an instrument may only ever be updated from one
//      thread, or under one mutex (the sharded TimerService gives each
//      shard its own label set and updates it only under the shard lock).
//      Registry Get* calls and TakeSnapshot must run quiescently.

#ifndef TEMPO_SRC_OBS_METRICS_H_
#define TEMPO_SRC_OBS_METRICS_H_

#include <array>
#include <bit>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace tempo {
namespace obs {

// Sorted (key, value) pairs identifying one instrument among several that
// share a metric name, e.g. {{"queue", "heap"}, {"op", "set"}}.
using Labels = std::vector<std::pair<std::string, std::string>>;

// Monotonically increasing count of events.
class Counter {
 public:
  void Inc(uint64_t n = 1) { value_ += n; }
  // Raises the counter to `total` if it is behind; never lowers it. For
  // publishers that track a running total elsewhere (e.g. a relay channel's
  // accepted/dropped tallies) and periodically mirror it into obs.
  void AdvanceTo(uint64_t total) {
    if (total > value_) {
      value_ = total;
    }
  }
  uint64_t value() const { return value_; }

 private:
  friend class Registry;
  Counter() = default;
  void Reset() { value_ = 0; }
  uint64_t value_ = 0;
};

// A value that can go up and down; Max() maintains high-water marks.
class Gauge {
 public:
  void Set(int64_t v) { value_ = v; }
  void Add(int64_t d) { value_ += d; }
  // High-water-mark update: keeps the largest value ever Set or Max'd.
  void Max(int64_t v) {
    if (v > value_) {
      value_ = v;
    }
  }
  int64_t value() const { return value_; }

 private:
  friend class Registry;
  Gauge() = default;
  void Reset() { value_ = 0; }
  int64_t value_ = 0;
};

// Fixed-bucket log2-scale histogram of non-negative integer samples
// (cycles, nanoseconds, batch sizes...). Bucket i counts samples whose
// bit width is i: bucket 0 holds the value 0, bucket i (i >= 1) holds
// [2^(i-1), 2^i), and the last bucket absorbs everything from 2^62 up.
// 64 buckets cover the whole uint64_t range with no configuration and no
// allocation; quantiles are recovered by linear interpolation inside the
// winning bucket, which is exact to a factor of 2 — ample for latency
// work spanning nanoseconds to minutes.
//
// Record() records every value it is given. A histogram also carries the
// call sampler that ScopedProbe (probe.h) consults, so a probed histogram
// holds about one call in kProbeSampleEvery.
class Histogram {
 public:
  static constexpr size_t kBucketCount = 64;
  // Mean number of probe calls per timed call.
  static constexpr uint64_t kProbeSampleEvery = 64;

  // Whether the probe call being made now is one to time. The first call
  // on a fresh (or Reset) histogram is timed; after each timed call the
  // number of calls to skip is drawn uniformly from
  // [0, 2 * kProbeSampleEvery - 2] by a fixed-seed generator, so the same
  // call sequence always times the same calls, and a periodic call
  // pattern (a wheel that cascades every 256th tick) cannot phase-lock
  // with the sample the way a fixed 1-in-N counter would.
  bool SampleCall() {
    if (skip_ != 0) {
      --skip_;
      return false;
    }
    skip_ = NextSkip();
    return true;
  }

  void Record(uint64_t sample) {
    ++buckets_[BucketIndex(sample)];
    ++count_;
    sum_ += sample;
    if (sample < min_ || count_ == 1) {
      min_ = sample;
    }
    if (sample > max_) {
      max_ = sample;
    }
  }

  uint64_t count() const { return count_; }
  uint64_t sum() const { return sum_; }
  uint64_t min() const { return count_ == 0 ? 0 : min_; }
  uint64_t max() const { return max_; }
  double mean() const {
    return count_ == 0 ? 0.0 : static_cast<double>(sum_) / static_cast<double>(count_);
  }

  // Value at quantile q in [0, 1], linearly interpolated within the bucket
  // that contains the q-th sample. Returns 0 for an empty histogram.
  double Quantile(double q) const;

  const std::array<uint64_t, kBucketCount>& buckets() const { return buckets_; }

  // Bucket i covers [BucketLowerBound(i), BucketUpperBound(i)).
  static uint64_t BucketLowerBound(size_t i) {
    return i == 0 ? 0 : (i == 1 ? 1 : uint64_t{1} << (i - 1));
  }
  static uint64_t BucketUpperBound(size_t i) {
    return i == 0 ? 1 : (i >= 63 ? UINT64_MAX : uint64_t{1} << i);
  }
  static size_t BucketIndex(uint64_t sample) {
    const size_t width = static_cast<size_t>(std::bit_width(sample));
    return width < kBucketCount ? width : kBucketCount - 1;
  }

 private:
  friend class Registry;
  Histogram() = default;
  void Reset() {
    buckets_.fill(0);
    count_ = sum_ = min_ = max_ = 0;
    skip_ = 0;
    sampler_state_ = kSamplerSeed;
  }

  // splitmix64 (Steele, Lea and Flood): one step per timed call. The high
  // 32 bits are scaled onto [0, 2 * kProbeSampleEvery - 2].
  uint32_t NextSkip() {
    uint64_t z = (sampler_state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    z ^= z >> 31;
    return static_cast<uint32_t>(((z >> 32) * (2 * kProbeSampleEvery - 1)) >> 32);
  }

  static constexpr uint64_t kSamplerSeed = 0x74656D706F;  // "tempo" in ASCII

  uint32_t skip_ = 0;  // probe calls left to pass over before the next timed one
  uint64_t sampler_state_ = kSamplerSeed;
  std::array<uint64_t, kBucketCount> buckets_{};
  uint64_t count_ = 0;
  uint64_t sum_ = 0;
  uint64_t min_ = 0;
  uint64_t max_ = 0;
};

// One exported instrument, as captured by Registry::TakeSnapshot().
struct SnapshotEntry {
  enum class Kind { kCounter, kGauge, kHistogram };

  std::string name;
  Labels labels;
  std::string help;
  Kind kind = Kind::kCounter;

  // Counter/gauge value (counters are non-negative).
  int64_t value = 0;

  // Histogram statistics; valid when kind == kHistogram.
  uint64_t count = 0;
  uint64_t sum = 0;
  uint64_t min = 0;
  uint64_t max = 0;
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
  // Non-empty buckets only, as (upper_bound, cumulative_count) pairs in
  // ascending order — what the Prometheus renderer needs for `le` series.
  std::vector<std::pair<uint64_t, uint64_t>> cumulative_buckets;
};

// Deterministically ordered (by name, then labels) capture of every
// registered instrument. Rendering lives in snapshot.h.
struct MetricsSnapshot {
  std::vector<SnapshotEntry> entries;

  // First entry matching name (+ labels, if given); nullptr if absent.
  const SnapshotEntry* Find(const std::string& name) const;
  const SnapshotEntry* Find(const std::string& name, const Labels& labels) const;
};

// Owns every instrument. Instruments are created on first Get and live for
// the registry's lifetime; repeated Gets with the same name and labels
// return the same pointer, so hot paths resolve once and cache it.
//
// A metric name is bound to one instrument kind: asking for an existing
// name with a different kind returns nullptr (the caller has a bug; a
// nullptr instrument is safely ignorable by ScopedProbe, and tests pin the
// behaviour).
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  // The process-wide registry every tempo subsystem reports into.
  static Registry& Global();

  Counter* GetCounter(const std::string& name, Labels labels = {},
                      const std::string& help = "");
  Gauge* GetGauge(const std::string& name, Labels labels = {},
                  const std::string& help = "");
  Histogram* GetHistogram(const std::string& name, Labels labels = {},
                          const std::string& help = "");

  // Zeroes every instrument's value but keeps the instruments themselves
  // (cached pointers stay valid). Used between runs and by tests.
  void Reset();

  // Number of registered instruments.
  size_t size() const { return instruments_.size(); }

  MetricsSnapshot TakeSnapshot() const;

 private:
  struct Instrument {
    std::string name;
    Labels labels;
    std::string help;
    SnapshotEntry::Kind kind;
    // Exactly one is set, matching `kind`.
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  using Key = std::pair<std::string, Labels>;

  Instrument* FindOrCreate(const std::string& name, Labels labels,
                           const std::string& help, SnapshotEntry::Kind kind);

  // std::map keeps snapshot order deterministic with zero sorting work.
  std::map<Key, Instrument> instruments_;
};

}  // namespace obs
}  // namespace tempo

#endif  // TEMPO_SRC_OBS_METRICS_H_

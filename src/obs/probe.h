// Scoped latency probes and the pluggable probe clock.
//
// A ScopedProbe brackets a region of code and, on about one call in 64,
// records its duration — in probe-clock cycles — into a Histogram on
// destruction. The paper's own instrumentation budget (236 cycles/record,
// Section 3.2) is the bar, and tempo keeps its probes under a tenth of it:
//   - Counting and timing are separate. The counters beside a probe (the
//     timer queues' timer_ops) count every call; the probe times a
//     deterministic pseudo-random sample of them, chosen per histogram by
//     Histogram::SampleCall (metrics.h). The first call on a fresh
//     histogram is always timed, and the same call sequence always times
//     the same calls. A histogram's count is therefore the number of timed
//     calls, not the number of calls.
//   - A timed call is two ordered clock reads and one histogram update.
//     Untimed calls cost a branch and a decrement; runtime-disabled probes
//     a single predictable branch; compiled-out probes
//     (TEMPO_OBS_COMPILED_OUT) nothing. bench/micro_metrics_overhead
//     measures each path and writes BENCH_metrics.json.
//   - WallCycleClock fences the TSC read on both sides, so the region's
//     work retires before the end read and does not start before the
//     start read. Unordered back-to-back reads let a cache-missing
//     operation overlap them and read as a few dozen cycles.
//
// The probe clock is a plain function pointer, defaulting to the TSC on
// x86-64 and a steady_clock read elsewhere. Simulation runs that need
// deterministic snapshots install a virtual source instead (the simulator
// offers InstallSimProbeClock; tests install a plain counter), so sim mode
// performs no wall-clock reads at all.

#ifndef TEMPO_SRC_OBS_PROBE_H_
#define TEMPO_SRC_OBS_PROBE_H_

#include <chrono>
#include <cstdint>

#if defined(__x86_64__) || defined(_M_X64) || defined(__i386__)
#include <x86intrin.h>
#define TEMPO_OBS_HAS_RDTSC 1
#endif

#include "src/obs/metrics.h"

namespace tempo {
namespace obs {

// Reads the hardware timestamp counter (or a steady_clock nanosecond count
// where no TSC is available). The default probe clock. The lfence before
// the read waits for earlier instructions to complete; the one after keeps
// later instructions from starting before the read.
inline uint64_t WallCycleClock() {
#ifdef TEMPO_OBS_HAS_RDTSC
  _mm_lfence();
  const uint64_t tsc = __rdtsc();
  _mm_lfence();
  return tsc;
#else
  return static_cast<uint64_t>(
      std::chrono::steady_clock::now().time_since_epoch().count());
#endif
}

using ProbeClockFn = uint64_t (*)();

namespace internal {
// Mutable process-wide probe state. Single-threaded by design, like the
// simulator; not atomics, so probes stay at integer-op cost.
inline ProbeClockFn g_probe_clock = &WallCycleClock;
inline bool g_enabled = true;
}  // namespace internal

// Replaces the probe clock; returns the previous one so callers can
// restore it. Passing nullptr restores the default wall clock.
inline ProbeClockFn SetProbeClock(ProbeClockFn fn) {
  ProbeClockFn prev = internal::g_probe_clock;
  internal::g_probe_clock = fn != nullptr ? fn : &WallCycleClock;
  return prev;
}

// Current probe-clock reading.
inline uint64_t ProbeClockNow() { return internal::g_probe_clock(); }

// Runtime master switch for probes. Counters and gauges are single integer
// updates and always run; probes (two clock reads) honour this flag.
inline bool ProbesEnabled() { return internal::g_enabled; }
inline void SetProbesEnabled(bool enabled) { internal::g_enabled = enabled; }

#ifndef TEMPO_OBS_COMPILED_OUT

// Records the lifetime of the object, in probe-clock cycles, into
// `histogram` when the histogram's sampler picks this call. A null
// histogram (or disabled probes) records nothing and advances no sampler.
class ScopedProbe {
 public:
  explicit ScopedProbe(Histogram* histogram)
      : histogram_(internal::g_enabled && histogram != nullptr && histogram->SampleCall()
                       ? histogram
                       : nullptr),
        start_(histogram_ != nullptr ? internal::g_probe_clock() : 0) {}

  ScopedProbe(const ScopedProbe&) = delete;
  ScopedProbe& operator=(const ScopedProbe&) = delete;

  ~ScopedProbe() {
    if (histogram_ != nullptr) {
      histogram_->Record(internal::g_probe_clock() - start_);
    }
  }

 private:
  Histogram* histogram_;
  uint64_t start_;
};

#else  // TEMPO_OBS_COMPILED_OUT

// Compiled-out probes: constructor and destructor are empty and the
// histogram pointer is never even loaded. This is the "unmodified kernel"
// baseline of the overhead benchmark.
class ScopedProbe {
 public:
  explicit ScopedProbe(Histogram*) {}
  ScopedProbe(const ScopedProbe&) = delete;
  ScopedProbe& operator=(const ScopedProbe&) = delete;
};

#endif  // TEMPO_OBS_COMPILED_OUT

}  // namespace obs
}  // namespace tempo

#endif  // TEMPO_SRC_OBS_PROBE_H_

// Whether this binary was compiled with AddressSanitizer or ThreadSanitizer.
//
// Both slow the measured code several times over, so a gate on wall cycles
// measured in such a build says nothing about the code. Benches that gate
// on wall cycles print the measured value there and report the gate as
// "skipped: sanitizer build"; their lost-record and identity checks still
// decide the exit status. Every other build enforces the gate.

#ifndef TEMPO_BENCH_SANITIZER_BUILD_H_
#define TEMPO_BENCH_SANITIZER_BUILD_H_

namespace tempo {

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
inline constexpr bool kSanitizerBuild = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
inline constexpr bool kSanitizerBuild = true;
#else
inline constexpr bool kSanitizerBuild = false;
#endif
#else
inline constexpr bool kSanitizerBuild = false;
#endif

// The status of a wall-cycle gate: "pass" or "fail" by `within` (a failed
// correctness check is always "fail"), or skipped in a sanitizer build.
inline const char* CycleGateStatus(bool sane, bool within) {
  if (!sane) {
    return "fail";
  }
  if (kSanitizerBuild) {
    return "skipped: sanitizer build";
  }
  return within ? "pass" : "fail";
}

}  // namespace tempo

#endif  // TEMPO_BENCH_SANITIZER_BUILD_H_

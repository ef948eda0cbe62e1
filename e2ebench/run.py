#!/usr/bin/env python3
"""tempo's end-to-end benchmark: build, run one workload, check, report.

    python3 e2ebench/run.py --workload vista-desktop --seed 2008 --seconds 20 --trace 0
    python3 e2ebench/run.py --self-check

Run from the root of a tempo checkout. The first run builds e2ebench/ (and
the tempo libraries under src/) into $CARGO_TARGET_DIR, or .bench_build when
that is unset; later runs rebuild incrementally. Each run starts one
e2e_bench process for the workload, so its peak RSS and obs counters belong
to that workload alone.

With --trace 0 the last line of stdout is a JSON object whose metrics are
BENCHMARK.json's end_to_end list; with --trace 1 they are its per_layer
list, measured by the traced run, and the run also writes its spans as
Chrome trace-event JSON (open in Perfetto) under the build directory.

--self-check runs every workload at a small size: both modes on seed 2008,
the untraced mode on a second seed, and the pipelines again at one analysis
job. It asserts that every metric BENCHMARK.json names is printed with its
unit, that every output check passes (the traced run also checks that its
ledgers close within 10%), and that every case of one seed renders the same
report digests.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("vista-desktop", "linux-webserver", "c10m")
# A run must end within 180 s: the measuring process plus the set-ups.
RUN_TIMEOUT_S = 120
SETUPS = 5
SETUP_TIMEOUT_S = 8


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.abspath(os.path.join(base, "e2ebench"))


def build():
    """Configures once, then builds incrementally. Returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError("tempo sources (src/) not found next to e2ebench/")
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", out, "--target", "e2e_bench", "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(out, "e2e_bench")


def git_commit():
    try:
        done = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [(m["name"], m["unit"]) for m in spec["per_layer" if trace else "end_to_end"]]


def work_dir():
    work = os.path.join(build_dir(), "work")
    os.makedirs(work, exist_ok=True)
    return work


def measure_setup(binary, workload, seed, scale=1.0):
    """Set-up time: the median wall time, start to exit, of SETUPS fresh
    processes that each build their fixtures and run one warm-up iteration
    (1/8 scale) before the point where a measuring run starts its clock.
    Returns (median seconds, checks attempted, checks failed)."""
    samples, attempted, failed = [], 0, 0
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--scale", repr(scale),
           "--work-dir", work_dir(), "--setup-only"]
    for _ in range(SETUPS):
        t0 = time.perf_counter()
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
        samples.append(time.perf_counter() - t0)
        try:
            result = json.loads(done.stdout.strip().split("\n")[-1])
        except (ValueError, IndexError):
            result = {"attempted": 0, "failed": 0}
        attempted += result["attempted"] + 1
        failed += result["failed"] + (1 if done.returncode != 0 else 0)
    return statistics.median(samples), attempted, failed


def run_workload(binary, workload, seed, seconds, trace, scale=1.0, jobs=0):
    """Runs one e2e_bench process; returns (readable lines, result dict)."""
    out = build_dir()
    work = work_dir()
    spans_dir = os.path.join(out, "spans")
    os.makedirs(spans_dir, exist_ok=True)
    spans = os.path.join(spans_dir, "%s-seed%d.json" % (workload, seed))
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", repr(seconds),
           "--trace", "1" if trace else "0", "--scale", repr(scale), "--work-dir", work,
           "--spans", spans, "--jobs", str(jobs)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError("%s did not finish within %d s" % (workload, RUN_TIMEOUT_S))
    lines = stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        raise RuntimeError("e2e_bench printed no result (exit %d)" % proc.returncode)
    result["exit_code"] = proc.returncode
    result["spans_file"] = spans if trace else None
    return lines[:-1], result


def validate(result, expected, trace):
    """The wrapper's own checks on one result; returns failure messages."""
    failures = []
    if result["exit_code"] != 0:
        failures.append("e2e_bench exited %d" % result["exit_code"])
    metrics = result["metrics"]
    for name, unit in expected:
        m = metrics.get(name)
        if m is None:
            failures.append("metric %s missing" % name)
        elif m.get("unit") != unit:
            failures.append("metric %s has unit %r, want %r" % (name, m.get("unit"), unit))
        elif not isinstance(m.get("value"), (int, float)) or not math.isfinite(m["value"]):
            failures.append("metric %s is not a finite number" % name)
        elif not trace and m["value"] <= 0:
            failures.append("end-to-end metric %s is not positive" % name)
    extra = sorted(set(metrics) - {name for name, _ in expected})
    if extra:
        failures.append("unexpected metrics: %s" % ", ".join(extra))
    if trace:
        try:
            with open(result["spans_file"]) as f:
                events = json.load(f)["traceEvents"]
            if not any(e.get("ph") == "X" for e in events):
                failures.append("span file holds no spans")
        except (OSError, ValueError, KeyError) as e:
            failures.append("span file unreadable: %s" % e)
    return failures


def add_setup(binary, result, workload, seed, scale=1.0):
    setup_s, attempted, failed = measure_setup(binary, workload, seed, scale)
    result["metrics"]["setup_s"] = {"value": setup_s, "unit": "s"}
    result["attempted"] += attempted
    result["failed"] += failed
    if failed:
        result["failures"].append("%d set-up checks failed" % failed)


def self_check(binary):
    """Small-size pass over every workload: both modes on seed 2008, the
    untraced mode on a second seed, and the pipelines again at one analysis
    job. Every case must pass its checks and print every metric with its
    unit, and the cases of one seed must render the same digest."""
    cases = []
    for workload in WORKLOADS:
        cases += [(workload, 2008, False, 0), (workload, 2008, True, 0), (workload, 7, False, 0)]
        if workload != "c10m":
            cases.append((workload, 2008, False, 1))
    ok = True
    digests = {}
    for workload, seed, trace, jobs in cases:
        _, result = run_workload(binary, workload, seed, 0.5, trace, scale=0.1, jobs=jobs)
        if not trace:
            add_setup(binary, result, workload, seed, scale=0.1)
        failures = validate(result, expected_metrics(trace), trace)
        failures += ["check failed: " + f for f in result["failures"]]
        if result["failed"] or result["attempted"] == 0:
            failures.append("%d of %d output checks failed" % (result["failed"], result["attempted"]))
        first = digests.setdefault((workload, seed), result["digest"])
        if result["digest"] != first:
            failures.append("digest %s != %s of the first case" % (result["digest"], first))
        print("self-check %-16s seed %-4d trace %d jobs %s: %s (%d checks, digest %s)"
              % (workload, seed, trace, jobs or "auto", "ok" if not failures else "FAILED",
                 result["attempted"], result["digest"]))
        for f in failures:
            print("    " + f)
        ok = ok and not failures
    print("self-check: %s" % ("PASS" if ok else "FAIL"))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=2008)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args()
    if not args.self_check and args.workload is None:
        parser.error("--workload is required")
    try:
        binary = build()
        if args.self_check:
            return self_check(binary)
        trace = args.trace == 1
        expected = expected_metrics(trace)
        lines, result = run_workload(binary, args.workload, args.seed, args.seconds, trace)
        if not trace:
            add_setup(binary, result, args.workload, args.seed)
    except (OSError, RuntimeError, ValueError, KeyError, subprocess.SubprocessError) as e:
        print("error: %s" % e, file=sys.stderr)
        return 2

    for line in lines:
        print(line)
    if not trace:
        print("  %-34s %14.6g s (median of %d set-up processes)"
              % ("setup_s", result["metrics"]["setup_s"]["value"], SETUPS))
    failures = validate(result, expected, trace)
    for f in failures:
        print("  FAILED: " + f)
    print("git commit %s" % git_commit())
    if trace and result["spans_file"]:
        print("spans: %s" % os.path.relpath(result["spans_file"]))
    attempted = result["attempted"] + 1
    failed = result["failed"] + (1 if failures else 0)
    correct = failed == 0
    final = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: result["metrics"][name] for name, _ in expected
                    if name in result["metrics"]},
    }
    print(json.dumps(final, separators=(",", ":")))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

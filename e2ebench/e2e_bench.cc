// e2e_bench — one workload of tempo's end-to-end benchmark, in its own
// process, so peak RSS and obs counters belong to that workload alone.
//
//   e2e_bench --workload vista-desktop|linux-webserver|c10m [--seed N]
//             [--seconds S] [--trace 0|1] [--scale F] [--work-dir DIR]
//             [--spans FILE] [--jobs N] [--setup-only]
//
// Every workload is a closed loop: each stage starts when the previous
// call returns, and simulated time runs as fast as tempo processes it.
//
//   vista-desktop    RunVistaDesktop with a live tap (RelayDrainer into
//                    LiveAnalyzer + SlackTracker every 100 ms simulated),
//                    WriteTraceFile as v3, TraceChunkReader::Open, and
//                    PipelineRunner::Run over tracestat's passes plus
//                    RatesPass at jobs = min(4, cores).
//   linux-webserver  The same pipeline over RunLinuxWebserver, written with
//                    the default TraceWriteOptions.
//   c10m             C10MServer alone: construct, then Run (RunThreaded on
//                    four or more cores).
//
// A run first warms up with one 1/8-scale iteration through the same code,
// so lazy initialisation and allocator growth land there. It then runs
// full iterations in whole cycles over four workload seeds derived from
// --seed, as many cycles as fit in --seconds: one 6-minute Vista desktop
// holds a Poisson number of Outlook storms, so a single seed would make
// the median track that draw, not tempo. With
// --setup-only it stops after the warm-up: run.py times such processes,
// start to exit, as the benchmark's set-up time. With --trace 1 it
// alternates untraced and traced iterations: traced ones time each layer's
// public calls from this file (see ledger.h), read the obs registry
// through Registry::TakeSnapshot, and keep spans for the --spans file.
//
// Every iteration checks its outputs; any failed check makes the exit code
// non-zero. The last line of stdout is one JSON object for run.py.

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <sys/stat.h>
#include <thread>
#include <unistd.h>
#include <vector>

#include "e2ebench/ledger.h"
#include "src/analysis/classify.h"
#include "src/analysis/histogram.h"
#include "src/analysis/latency.h"
#include "src/analysis/origins.h"
#include "src/analysis/pipeline.h"
#include "src/analysis/provenance.h"
#include "src/analysis/rates.h"
#include "src/analysis/summary.h"
#include "src/live/live_analyzer.h"
#include "src/live/slack_tracker.h"
#include "src/net/server.h"
#include "src/obs/metrics.h"
#include "src/trace/chunked.h"
#include "src/trace/file.h"
#include "src/trace/relay.h"
#include "src/workloads/linux_workloads.h"
#include "src/workloads/vista_workloads.h"

namespace tempo {
namespace e2e {
namespace {

// The warm-up runs fixed inputs, so set-up cost does not vary with --seed
// (a short Vista desktop run may or may not contain an Outlook storm).
constexpr double kWarmupScale = 1.0 / 8;
constexpr uint64_t kWarmupSeed = 2008;
constexpr uint64_t kSubSeeds = 4;

uint64_t SubSeed(uint64_t seed, uint64_t k) { return seed * kSubSeeds + k; }

// ---------------------------------------------------------------- utilities

struct Checks {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> failures;

  void Expect(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      if (failures.size() < 32) {
        failures.push_back(what);
      }
    }
  }
};

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Nearest-rank percentile of an unsorted sample.
double Percentile(std::vector<double> v, double q) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  const size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

uint64_t FileSize(const std::string& path) {
  struct stat st;
  if (::stat(path.c_str(), &st) != 0 || st.st_size < 0) {
    return 0;
  }
  return static_cast<uint64_t>(st.st_size);
}

// Peak resident set of this process (VmHWM), in MiB.
double PeakRssMb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) {
    return 0;
  }
  char line[256];
  double kb = 0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kb = std::atof(line + 6);
      break;
    }
  }
  std::fclose(f);
  return kb / 1024.0;
}

// ------------------------------------------------------------ obs readings

// Counter/gauge sum over every entry named `name` whose labels contain
// (key, value) — or over all entries when key is empty.
int64_t SumEntries(const obs::MetricsSnapshot& snap, const std::string& name,
                   const std::string& key = "", const std::string& value = "") {
  int64_t sum = 0;
  for (const obs::SnapshotEntry& e : snap.entries) {
    if (e.name != name) {
      continue;
    }
    bool match = key.empty();
    for (const auto& [k, v] : e.labels) {
      match = match || (k == key && v == value);
    }
    if (match) {
      sum += e.value;
    }
  }
  return sum;
}

int64_t MaxEntry(const obs::MetricsSnapshot& snap, const std::string& name) {
  int64_t max = 0;
  for (const obs::SnapshotEntry& e : snap.entries) {
    if (e.name == name) {
      max = std::max(max, e.value);
    }
  }
  return max;
}

// Log2 bucket upper bound -> sample count, summed over every histogram
// entry named `name` with label op=`op`.
using Buckets = std::map<uint64_t, int64_t>;

Buckets HistogramBuckets(const obs::MetricsSnapshot& snap, const std::string& name,
                         const std::string& op) {
  Buckets buckets;
  for (const obs::SnapshotEntry& e : snap.entries) {
    if (e.name != name || e.kind != obs::SnapshotEntry::Kind::kHistogram) {
      continue;
    }
    bool match = false;
    for (const auto& [k, v] : e.labels) {
      match = match || (k == "op" && v == op);
    }
    if (!match) {
      continue;
    }
    uint64_t previous = 0;
    for (const auto& [upper, cumulative] : e.cumulative_buckets) {
      buckets[upper] += static_cast<int64_t>(cumulative - previous);
      previous = cumulative;
    }
  }
  return buckets;
}

Buckets Subtract(Buckets after, const Buckets& before) {
  for (const auto& [upper, count] : before) {
    after[upper] -= count;
  }
  return after;
}

// Quantile of a log2-bucketed sample, interpolated inside the bucket the
// way obs::Histogram::Quantile does.
double BucketQuantile(const Buckets& buckets, double q) {
  int64_t total = 0;
  for (const auto& [upper, count] : buckets) {
    total += std::max<int64_t>(count, 0);
  }
  if (total == 0) {
    return 0;
  }
  const double target = q * static_cast<double>(total);
  double seen = 0;
  for (const auto& [upper, count] : buckets) {
    if (count <= 0) {
      continue;
    }
    if (seen + static_cast<double>(count) >= target) {
      const double lower = upper <= 1 ? 0.0 : static_cast<double>(upper / 2);
      const double frac = (target - seen) / static_cast<double>(count);
      return lower + frac * (static_cast<double>(upper) - lower);
    }
    seen += static_cast<double>(count);
  }
  return static_cast<double>(buckets.rbegin()->first);
}

// What the traced run reads from the obs registry, as deltas over one
// iteration.
struct ObsDelta {
  int64_t sim_events = 0;
  int64_t sim_queue_hwm = 0;
  int64_t records_logged = 0;
  int64_t records_dropped = 0;
  int64_t timer_set = 0;
  int64_t timer_reschedule = 0;
  int64_t timer_cancel = 0;
  int64_t timer_expire = 0;
  int64_t cache_hits = 0;
  int64_t cache_misses = 0;
  int64_t lock_contended = 0;
  std::map<std::string, Buckets> op_cycles;  // timer_op_cycles by op
};

constexpr const char* kTimedOps[] = {"set", "cancel", "advance"};

ObsDelta DeltaOf(const obs::MetricsSnapshot& before, const obs::MetricsSnapshot& after) {
  auto diff = [&](const std::string& name, const std::string& key = "",
                  const std::string& value = "") {
    return SumEntries(after, name, key, value) - SumEntries(before, name, key, value);
  };
  ObsDelta d;
  d.sim_events = diff("sim_events_executed");
  d.sim_queue_hwm = MaxEntry(after, "sim_event_queue_depth_hwm");
  d.records_logged = diff("trace_records_logged");
  d.records_dropped = diff("trace_records_dropped") + diff("trace_relay_dropped");
  d.timer_set = diff("timer_ops", "op", "set");
  d.timer_reschedule = diff("timer_ops", "op", "reschedule");
  d.timer_cancel = diff("timer_ops", "op", "cancel");
  d.timer_expire = diff("timer_ops", "op", "expire");
  d.cache_hits = diff("timer_service_deadline_cache", "result", "hit");
  d.cache_misses = diff("timer_service_deadline_cache", "result", "miss");
  d.lock_contended = diff("timer_service_lock_contended");
  for (const char* op : kTimedOps) {
    d.op_cycles[op] = Subtract(HistogramBuckets(after, "timer_op_cycles", op),
                               HistogramBuckets(before, "timer_op_cycles", op));
  }
  return d;
}

// ---------------------------------------------------------------- pipelines

struct PipelineConfig {
  std::function<TraceRun(const WorkloadOptions&)> run;
  TraceWriteOptions write;
  SimDuration duration = 0;
};

// tracestat's pass set plus RatesPass; raw pointers keep reaching the
// concrete passes when they are wrapped in TimedPass.
struct PassSet {
  std::vector<std::unique_ptr<AnalysisPass>> passes;
  SummaryPass* summary = nullptr;
  RatesPass* rates = nullptr;
  std::vector<TimedPass*> timed;
};

PassSet MakePasses(const std::string& label, const CallsiteRegistry* callsites,
                   const RateGrouping& grouping, const SpanContext* context) {
  std::vector<std::unique_ptr<AnalysisPass>> raw;
  auto summary = std::make_unique<SummaryPass>(label);
  PassSet set;
  set.summary = summary.get();
  raw.push_back(std::move(summary));
  raw.push_back(std::make_unique<ClassifyPass>());
  HistogramOptions histogram;
  raw.push_back(std::make_unique<HistogramPass>(histogram, /*show_jiffies=*/true));
  OriginOptions origin;
  origin.min_percent = 0.5;
  raw.push_back(std::make_unique<OriginsPass>(callsites, origin));
  raw.push_back(std::make_unique<ProvenancePass>(callsites));
  raw.push_back(std::make_unique<LatencyPass>(callsites));
  auto rates = std::make_unique<RatesPass>(grouping, RateOptions{});
  set.rates = rates.get();
  raw.push_back(std::move(rates));
  for (auto& pass : raw) {
    if (context != nullptr) {
      auto timed = std::make_unique<TimedPass>(std::move(pass), context);
      set.timed.push_back(timed.get());
      set.passes.push_back(std::move(timed));
    } else {
      set.passes.push_back(std::move(pass));
    }
  }
  return set;
}

// Every registered process labelled by its own name, as tempotop does.
RateGrouping GroupingOf(const ProcessTable& table) {
  RateGrouping grouping;
  for (const Process& p : table.processes()) {
    if (p.pid != kKernelPid) {
      grouping.pid_labels[p.pid] = p.name;
    }
  }
  return grouping;
}

bool SameSeries(const std::vector<RateSeries>& a, const std::vector<RateSeries>& b) {
  if (a.size() != b.size()) {
    return false;
  }
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].label != b[i].label || a[i].per_window != b[i].per_window) {
      return false;
    }
  }
  return true;
}

// A ledger closes when its layer times sum to the stage's wall time
// within 10%.
bool Closes(double layers_s, double wall_s) {
  return wall_s > 0 && std::fabs(layers_s / wall_s - 1.0) <= 0.10;
}

struct PassTimes {
  std::string name;
  double accumulate_s = 0;
  double merge_s = 0;
  double render_s = 0;
};

struct PipelineSample {
  // Stage wall times.
  double record_s = 0;
  double analyze_s = 0;
  // Layer times (traced iterations only, except the poll samples).
  double sim_self_s = 0;
  double poll_s = 0;
  double finish_s = 0;
  double encode_s = 0;
  double open_s = 0;
  double pipeline_s = 0;
  double render_s = 0;
  double decode_s = 0;
  std::vector<double> poll_us;
  std::vector<PassTimes> passes;
  uint64_t records = 0;
  uint64_t file_bytes = 0;
  uint64_t chunks = 0;
  uint64_t polls = 0;
  uint64_t live_records = 0;
  uint64_t window_evictions = 0;
  size_t jobs = 0;
  uint64_t digest = 0;
};

PipelineSample RunPipeline(const PipelineConfig& config, SimDuration duration, uint64_t seed,
                           size_t jobs, const std::string& label, const std::string& path,
                           SpanLog* log, uint32_t run_id, bool poll_spans, Checks& checks) {
  PipelineSample s;
  ScopedSpan iteration(log, "iteration", 0, run_id);
  const Clock::time_point record_start = Clock::now();
  uint32_t record_span_id = 0;
  TraceRun run;
  RelayChannelSet channels;
  std::unique_ptr<live::LiveAnalyzer> analyzer;
  std::unique_ptr<live::SlackTracker> slack;
  std::unique_ptr<RelayDrainer> drainer;
  RateGrouping grouping;
  {
    ScopedSpan record(log, "record", iteration.id(), run_id);
    record_span_id = record.id();
    LiveTapOptions tap;
    tap.channels = &channels;
    auto start_live = [&] {
      grouping = tap.processes != nullptr ? GroupingOf(*tap.processes) : RateGrouping{};
      live::LiveOptions options;
      options.grouping = grouping;
      options.callsites = tap.callsites;
      options.ring_windows = static_cast<size_t>(duration / kSecond) + 16;
      analyzer = std::make_unique<live::LiveAnalyzer>(options);
      slack = std::make_unique<live::SlackTracker>();
      drainer = std::make_unique<RelayDrainer>(
          &channels, [&a = *analyzer, &t = *slack](const TraceRecord& r) {
            a.Ingest(r);
            t.Ingest(r);
          });
    };
    tap.poll = [&] {
      if (analyzer == nullptr) {
        start_live();  // first poll: every process is registered by now
      }
      const Clock::time_point t0 = Clock::now();
      drainer->Poll();
      const Clock::time_point t1 = Clock::now();
      const double dt = SecondsBetween(t0, t1);
      s.poll_s += dt;
      s.poll_us.push_back(dt * 1e6);
      if (log != nullptr && poll_spans) {
        log->Add(Span{"live.poll", log->Nanos(t0), log->Nanos(t1), 0, record_span_id,
                      run_id, ThreadOrdinal()});
      }
    };

    WorkloadOptions options;
    options.duration = duration;
    options.seed = seed;
    options.live = &tap;
    {
      ScopedSpan span(log, "workloads.run", record_span_id, run_id);
      const Clock::time_point t0 = Clock::now();
      run = config.run(options);
      s.sim_self_s = SecondsBetween(t0, Clock::now()) - s.poll_s;
    }
    if (analyzer == nullptr) {
      start_live();  // a run shorter than one poll period
    }
    {
      ScopedSpan span(log, "live.finish", record_span_id, run_id);
      const Clock::time_point t0 = Clock::now();
      channels.CloseAll();
      drainer->Finish();
      analyzer->SyncObs();
      slack->SyncObs();
      s.finish_s = SecondsBetween(t0, Clock::now());
    }
    {
      ScopedSpan span(log, "trace.encode", record_span_id, run_id);
      const Clock::time_point t0 = Clock::now();
      checks.Expect(WriteTraceFile(path, run.records, run.callsites(), config.write),
                    "WriteTraceFile failed");
      s.encode_s = SecondsBetween(t0, Clock::now());
    }
  }
  s.record_s = SecondsBetween(record_start, Clock::now());
  s.records = run.records.size();
  s.polls = s.poll_us.size();
  s.live_records = analyzer->records_ingested();
  s.window_evictions = analyzer->windows_evicted();
  s.file_bytes = FileSize(path);

  // Analyze: open the file, run the passes, render every section.
  const Clock::time_point analyze_start = Clock::now();
  std::optional<TraceChunkReader> reader;
  PipelineStats stats;
  PassSet set;
  SpanContext context;
  DigestSink digest;
  {
    ScopedSpan analyze(log, "analyze", iteration.id(), run_id);
    TraceReadError error = TraceReadError::kIo;
    {
      ScopedSpan span(log, "trace.open", analyze.id(), run_id);
      const Clock::time_point t0 = Clock::now();
      reader = TraceChunkReader::Open(path, &error);
      s.open_s = SecondsBetween(t0, Clock::now());
    }
    if (!reader.has_value()) {
      checks.Expect(false, std::string("TraceChunkReader::Open: ") + TraceReadErrorName(error));
      return s;
    }
    ScopedSpan pipeline(log, "analysis.pipeline", analyze.id(), run_id);
    context = SpanContext{log, pipeline.id(), run_id};
    set = MakePasses(label, &reader->callsites(), grouping, log != nullptr ? &context : nullptr);
    PipelineOptions options;
    options.jobs = jobs;
    options.stats_label = "e2ebench";
    PipelineRunner runner(options);
    const Clock::time_point t0 = Clock::now();
    const bool ran = runner.Run(*reader, set.passes, &error);
    s.pipeline_s = SecondsBetween(t0, Clock::now());
    checks.Expect(ran, std::string("PipelineRunner::Run: ") + TraceReadErrorName(error));
    stats = runner.stats();
    pipeline.End();
    ScopedSpan render(log, "analysis.render", analyze.id(), run_id);
    const Clock::time_point render_start = Clock::now();
    for (const auto& pass : set.passes) {
      pass->Render(digest);
    }
    s.render_s = SecondsBetween(render_start, Clock::now());
  }
  s.analyze_s = SecondsBetween(analyze_start, Clock::now());
  s.digest = digest.digest();
  s.jobs = stats.jobs;
  s.chunks = reader->chunk_count();
  for (TimedPass* timed : set.timed) {
    s.passes.push_back(
        PassTimes{timed->name(), timed->accumulate_s(), timed->merge_s(), timed->render_s()});
  }

  // A serial decode sweep, outside both stages: the trace layer's decode
  // cost without the passes on top.
  uint64_t swept = 0;
  if (log != nullptr) {
    ScopedSpan span(log, "trace.decode", iteration.id(), run_id);
    const Clock::time_point t0 = Clock::now();
    TraceChunkReader::Cursor cursor = reader->MakeCursor();
    for (size_t i = 0; i < reader->chunk_count() && cursor.ok(); ++i) {
      swept += cursor.Read(i).size();
    }
    s.decode_s = SecondsBetween(t0, Clock::now());
    checks.Expect(cursor.ok() && swept == s.records, "serial decode sweep != produced");
  }

  // Output checks: produced = written = decoded = analysed = live-ingested,
  // no relay drops, and the live rate series equal the offline pass.
  uint64_t dropped = 0;
  for (size_t i = 0; i < channels.size(); ++i) {
    dropped += channels.channel(i)->dropped();
  }
  checks.Expect(s.records > 0, "workload produced no records");
  checks.Expect(dropped == 0, "live relay dropped records");
  checks.Expect(reader->record_count() == s.records, "written != produced");
  checks.Expect(stats.records == s.records, "decoded != produced");
  checks.Expect(set.summary->Result().accesses == s.records, "analysed != produced");
  checks.Expect(s.live_records == s.records, "live-ingested != produced");
  checks.Expect(s.window_evictions == 0, "live rate windows evicted");
  checks.Expect(SameSeries(analyzer->SetRateResult(), set.rates->Result()),
                "live SetRateResult != offline RatesPass");
  checks.Expect(digest.sections() > 0, "no report sections rendered");
  if (log != nullptr) {
    checks.Expect(Closes(s.sim_self_s + s.poll_s + s.finish_s + s.encode_s, s.record_s),
                  "record ledger does not close");
    checks.Expect(Closes(s.open_s + s.pipeline_s + s.render_s, s.analyze_s),
                  "analyze ledger does not close");
  }
  return s;
}

// --------------------------------------------------------------------- c10m

struct C10MSample {
  double e2e_s = 0;  // construct + Run, on one clock
  double construct_s = 0;
  double run_s = 0;
  uint64_t ops = 0;
  uint64_t fires = 0;
  C10MReport report;
};

C10MSample RunC10M(const C10MOptions& options, bool threaded, SpanLog* log, uint32_t run_id,
                   Checks& checks) {
  C10MSample s;
  ScopedSpan iteration(log, "iteration", 0, run_id);
  const Clock::time_point start = Clock::now();
  std::unique_ptr<C10MServer> server;
  {
    ScopedSpan span(log, "net.c10m.construct", iteration.id(), run_id);
    const Clock::time_point t0 = Clock::now();
    server = std::make_unique<C10MServer>(options);
    s.construct_s = SecondsBetween(t0, Clock::now());
  }
  // The service's op counters are shared by label with earlier servers
  // of this process; the deltas belong to this run.
  TimerService& service = server->service();
  const uint64_t set0 = service.set_count();
  const uint64_t resched0 = service.reschedule_count();
  const uint64_t cancel0 = service.cancel_count();
  const uint64_t expire0 = service.expire_count();
  {
    ScopedSpan span(log, "net.c10m.run", iteration.id(), run_id);
    const Clock::time_point t0 = Clock::now();
    s.report = threaded ? server->RunThreaded() : server->Run();
    s.run_s = SecondsBetween(t0, Clock::now());
  }
  s.e2e_s = SecondsBetween(start, Clock::now());
  const C10MReport& r = s.report;
  const uint64_t sets = service.set_count() - set0;
  const uint64_t rescheds = service.reschedule_count() - resched0;
  const uint64_t cancels = service.cancel_count() - cancel0;
  s.fires = service.expire_count() - expire0;
  s.ops = r.timers_scheduled + r.timers_rescheduled + r.timers_canceled + s.fires +
          r.teardown_canceled;

  checks.Expect(r.final_live_timers == 0, "c10m: timers leaked after teardown");
  checks.Expect(r.teardown_canceled == r.teardown_collected,
                "c10m: teardown_canceled != teardown_collected");
  checks.Expect(r.peak_live_timers >= 2 * r.connections,
                "c10m: peak_live_timers < 2 x connections");
  checks.Expect(sets == r.timers_scheduled, "c10m: service sets != report scheduled");
  checks.Expect(rescheds == r.timers_rescheduled,
                "c10m: service reschedules != report rescheduled");
  checks.Expect(cancels == r.timers_canceled + r.teardown_canceled,
                "c10m: service cancels != report cancels + teardown");
  checks.Expect(sets == s.fires + cancels, "c10m: a scheduled timer neither fired nor canceled");
  if (log != nullptr) {
    checks.Expect(Closes(s.construct_s + s.run_s, s.e2e_s), "c10m: ledger does not close");
  }
  return s;
}

// ------------------------------------------------------------------ output

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void PrintJsonString(const std::string& s) {
  std::fputc('"', stdout);
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      std::fputc('\\', stdout);
    }
    std::fputc(static_cast<unsigned char>(c) < 0x20 ? ' ' : c, stdout);
  }
  std::fputc('"', stdout);
}

std::string Hex(uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
  return buf;
}

// --------------------------------------------------------------------- main

struct Args {
  std::string workload;
  uint64_t seed = 2008;
  double seconds = 10;
  bool trace = false;
  double scale = 1.0;
  std::string work_dir = ".";
  std::string spans;
  size_t jobs = 0;  // analysis workers; 0: min(4, cores)
  bool setup_only = false;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--setup-only") {
      args->setup_only = true;
      continue;
    }
    if (i + 1 >= argc) {
      return false;
    }
    const char* value = argv[++i];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atof(value);
    } else if (flag == "--trace") {
      args->trace = std::atoi(value) != 0;
    } else if (flag == "--scale") {
      args->scale = std::atof(value);
    } else if (flag == "--work-dir") {
      args->work_dir = value;
    } else if (flag == "--spans") {
      args->spans = value;
    } else if (flag == "--jobs") {
      args->jobs = std::strtoull(value, nullptr, 10);
    } else {
      return false;
    }
  }
  return !args->workload.empty() && args->seconds > 0 && args->scale > 0;
}

int Main(int argc, char** argv) {
  const Clock::time_point process_start = Clock::now();
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload vista-desktop|linux-webserver|c10m [--seed N] "
                 "[--seconds S] [--trace 0|1] [--scale F] [--work-dir DIR] "
                 "[--spans FILE] [--jobs N] [--setup-only]\n",
                 argv[0]);
    return 2;
  }
  const bool is_c10m = args.workload == "c10m";
  PipelineConfig pipeline;
  if (args.workload == "vista-desktop") {
    pipeline.run = RunVistaDesktop;
    pipeline.write.version = kTraceFileVersionColumnar;
    pipeline.duration = FromSeconds(6 * 60.0 * args.scale);
  } else if (args.workload == "linux-webserver") {
    pipeline.run = RunLinuxWebserver;
    pipeline.duration = FromSeconds(24 * 60.0 * args.scale);
  } else if (!is_c10m) {
    std::fprintf(stderr, "error: unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  const unsigned cores = std::max(1u, std::thread::hardware_concurrency());
  const size_t jobs = args.jobs > 0 ? args.jobs : std::min<size_t>(4, cores);
  const bool threaded = cores >= 4;
  C10MOptions c10m;
  c10m.connections = std::max<size_t>(1000, static_cast<size_t>(100'000 * args.scale));
  c10m.lanes = 4;
  c10m.queue = "hierarchical_wheel";
  c10m.duration = 2 * kSecond;
  c10m.tick = 10 * kMillisecond;

  const std::string trace_path =
      args.work_dir + "/" + args.workload + "-" + std::to_string(::getpid()) + ".trc";
  SpanLog log(process_start);
  Checks checks;

  // One iteration. Traced ones keep spans, layer timings and obs deltas;
  // the warm-up's results are checked but not kept.
  std::vector<PipelineSample> plain_pipe, traced_pipe;
  std::vector<C10MSample> plain_c10m, traced_c10m;
  std::vector<ObsDelta> traced_obs;
  // Report digest (c10m: fingerprint) per workload seed; every iteration
  // of one seed, traced or not, must render the same report.
  std::map<uint64_t, uint64_t> digests;
  auto check_digest = [&](uint64_t seed, uint64_t digest) {
    const auto [it, first] = digests.emplace(seed, digest);
    checks.Expect(first || it->second == digest,
                  "report digest changed between iterations of seed " + std::to_string(seed));
  };
  uint32_t run_id = 0;
  bool first_traced = true;
  auto iterate = [&](double scale, uint64_t seed, bool traced, bool warmup) {
    SpanLog* span_log = traced ? &log : nullptr;
    const obs::MetricsSnapshot before =
        traced ? obs::Registry::Global().TakeSnapshot() : obs::MetricsSnapshot{};
    ++run_id;
    if (is_c10m) {
      C10MOptions options = c10m;
      options.seed = seed;
      options.connections = std::max<size_t>(
          1000, static_cast<size_t>(static_cast<double>(c10m.connections) * scale));
      C10MSample s = RunC10M(options, threaded, span_log, run_id, checks);
      if (!warmup) {
        check_digest(seed, s.report.fingerprint);
        (traced ? traced_c10m : plain_c10m).push_back(std::move(s));
      }
    } else {
      const SimDuration duration =
          std::max<SimDuration>(kSecond, static_cast<SimDuration>(
                                             static_cast<double>(pipeline.duration) * scale));
      PipelineSample s = RunPipeline(pipeline, duration, seed, jobs, args.workload,
                                     trace_path, span_log, run_id, traced && first_traced,
                                     checks);
      if (!warmup) {
        check_digest(seed, s.digest);
        (traced ? traced_pipe : plain_pipe).push_back(std::move(s));
      }
    }
    if (traced) {
      first_traced = false;
      traced_obs.push_back(DeltaOf(before, obs::Registry::Global().TakeSnapshot()));
    }
  };

  iterate(kWarmupScale, kWarmupSeed, false, true);
  if (args.setup_only) {
    std::remove(trace_path.c_str());
    std::printf("{\"attempted\":%" PRIu64 ",\"failed\":%" PRIu64 "}\n", checks.attempted,
                checks.failed);
    return checks.failed == 0 ? 0 : 1;
  }
  const Clock::time_point measure_start = Clock::now();
  // Whole cycles over the seeds (traced runs pair each seed's untraced
  // and traced iteration), as many as fit in --seconds by the first
  // cycle's pace, so every run weighs the four seeds equally.
  const uint64_t cycle = args.trace ? 2 * kSubSeeds : kSubSeeds;
  uint64_t planned = cycle;
  for (uint64_t i = 0; i < planned; ++i) {
    const uint64_t k = (args.trace ? i / 2 : i) % kSubSeeds;
    iterate(1.0, SubSeed(args.seed, k), args.trace && i % 2 == 1, false);
    if (i + 1 == cycle) {
      const double cycle_s = SecondsBetween(measure_start, Clock::now());
      planned = cycle * static_cast<uint64_t>(std::max(1.0, std::round(args.seconds / cycle_s)));
    }
  }
  const double measure_s = SecondsBetween(measure_start, Clock::now());
  std::remove(trace_path.c_str());

  // ---- end-to-end metrics, from the untraced iterations ----
  auto med = [](const auto& samples, auto field) {
    std::vector<double> v;
    for (const auto& s : samples) {
      v.push_back(field(s));
    }
    return Median(std::move(v));
  };
  auto pipe_e2e = [](const PipelineSample& s) { return s.record_s + s.analyze_s; };
  auto pipe_ops = [](const PipelineSample& s) {
    return static_cast<double>(s.records) / (s.record_s + s.analyze_s);
  };
  auto c10m_e2e = [](const C10MSample& s) { return s.e2e_s; };
  auto c10m_ops = [](const C10MSample& s) { return static_cast<double>(s.ops) / s.run_s; };
  auto pooled_polls = [](const std::vector<PipelineSample>& samples) {
    std::vector<double> all;
    for (const PipelineSample& s : samples) {
      all.insert(all.end(), s.poll_us.begin(), s.poll_us.end());
    }
    return all;
  };

  const double e2e_s = is_c10m ? med(plain_c10m, c10m_e2e) : med(plain_pipe, pipe_e2e);
  const double ops_per_s = is_c10m ? med(plain_c10m, c10m_ops) : med(plain_pipe, pipe_ops);
  const double rss_mb = PeakRssMb();
  const std::vector<double> polls = pooled_polls(plain_pipe);
  const double record_s = med(plain_pipe, [](const PipelineSample& s) { return s.record_s; });
  const double analyze_s = med(plain_pipe, [](const PipelineSample& s) { return s.analyze_s; });
  const double poll_p50 = Percentile(polls, 0.50);
  const double poll_p99 = Percentile(polls, 0.99);
  const double bytes_per_record =
      plain_pipe.empty() ? 0
                         : static_cast<double>(plain_pipe.back().file_bytes) /
                               static_cast<double>(std::max<uint64_t>(1, plain_pipe.back().records));
  const double fail_ratio =
      static_cast<double>(checks.failed) / static_cast<double>(std::max<uint64_t>(1, checks.attempted));

  // setup_s, the fourth end-to-end metric, is timed by run.py over
  // separate --setup-only processes.
  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = {
        {"e2e_s", e2e_s, "s"},
        {"timer_ops_per_s", ops_per_s, "ops/s"},
        {"peak_rss_mb", rss_mb, "MB"},
    };
  }
  // Stage metrics of the pipelines; printed in both modes, carried in the
  // JSON metrics only by the traced run (they are not defined for c10m).
  const std::vector<Metric> stage = {
      {"record_s", record_s, "s"},
      {"analyze_s", analyze_s, "s"},
      {"live_poll_p50_us", poll_p50, "us"},
      {"live_poll_p99_us", poll_p99, "us"},
      {"trace_bytes_per_record", bytes_per_record, "B"},
      {"fail_ratio", fail_ratio, "ratio"},
  };

  if (args.trace) {
    metrics = stage;
    auto add = [&](const std::string& name, double value, const std::string& unit) {
      metrics.push_back(Metric{name, value, unit});
    };
    auto pmed = [&](auto field) { return med(traced_pipe, field); };
    // workloads + sim
    const double sim_self = pmed([](const PipelineSample& s) { return s.sim_self_s; });
    std::vector<double> events, hwm, logged, dropped, tset, tres, tcan, texp, miss, contended;
    std::map<std::string, Buckets> op_cycles;
    for (const ObsDelta& d : traced_obs) {
      events.push_back(static_cast<double>(d.sim_events));
      hwm.push_back(static_cast<double>(d.sim_queue_hwm));
      logged.push_back(static_cast<double>(d.records_logged));
      dropped.push_back(static_cast<double>(d.records_dropped));
      tset.push_back(static_cast<double>(d.timer_set));
      tres.push_back(static_cast<double>(d.timer_reschedule));
      tcan.push_back(static_cast<double>(d.timer_cancel));
      texp.push_back(static_cast<double>(d.timer_expire));
      const int64_t lookups = d.cache_hits + d.cache_misses;
      miss.push_back(lookups > 0 ? static_cast<double>(d.cache_misses) /
                                       static_cast<double>(lookups)
                                 : 0.0);
      contended.push_back(static_cast<double>(d.lock_contended));
      for (const auto& [op, buckets] : d.op_cycles) {
        for (const auto& [upper, count] : buckets) {
          op_cycles[op][upper] += count;
        }
      }
    }
    add("sim.self_s", sim_self, "s");
    add("sim.events", Median(events), "count");
    add("sim.events_per_s", sim_self > 0 ? Median(events) / sim_self : 0, "1/s");
    add("sim.queue_depth_hwm", Median(hwm), "count");
    // trace
    const double records = pmed([](const PipelineSample& s) { return double(s.records); });
    const double encode_s = pmed([](const PipelineSample& s) { return s.encode_s; });
    const double decode_s = pmed([](const PipelineSample& s) { return s.decode_s; });
    add("trace.records_logged", Median(logged), "count");
    add("trace.records_dropped", Median(dropped), "count");
    add("trace.encode_s", encode_s, "s");
    add("trace.encode_ns_per_record", records > 0 ? encode_s * 1e9 / records : 0, "ns");
    add("trace.file_bytes", pmed([](const PipelineSample& s) { return double(s.file_bytes); }),
        "B");
    add("trace.open_s", pmed([](const PipelineSample& s) { return s.open_s; }), "s");
    add("trace.decode_s", decode_s, "s");
    add("trace.decode_ns_per_record", records > 0 ? decode_s * 1e9 / records : 0, "ns");
    add("trace.chunks", pmed([](const PipelineSample& s) { return double(s.chunks); }),
        "count");
    // live
    add("live.poll_s", pmed([](const PipelineSample& s) { return s.poll_s; }), "s");
    add("live.polls", pmed([](const PipelineSample& s) { return double(s.polls); }), "count");
    add("live.records", pmed([](const PipelineSample& s) { return double(s.live_records); }),
        "count");
    add("live.window_evictions",
        pmed([](const PipelineSample& s) { return double(s.window_evictions); }), "count");
    add("live.finish_s", pmed([](const PipelineSample& s) { return s.finish_s; }), "s");
    // analysis
    static const char* const kPasses[] = {"summary", "patterns", "values", "origins",
                                          "provenance", "latency", "rates"};
    double accumulate_total = 0;
    for (const char* pass : kPasses) {
      auto pass_med = [&](auto field) {
        std::vector<double> v;
        for (const PipelineSample& s : traced_pipe) {
          for (const PassTimes& p : s.passes) {
            if (p.name == pass) {
              v.push_back(field(p));
            }
          }
        }
        return Median(std::move(v));
      };
      const double acc = pass_med([](const PassTimes& p) { return p.accumulate_s; });
      accumulate_total += acc;
      add(std::string("analysis.") + pass + ".accumulate_s", acc, "s");
      add(std::string("analysis.") + pass + ".merge_s",
          pass_med([](const PassTimes& p) { return p.merge_s; }), "s");
      add(std::string("analysis.") + pass + ".render_s",
          pass_med([](const PassTimes& p) { return p.render_s; }), "s");
    }
    const double pipeline_s = pmed([](const PipelineSample& s) { return s.pipeline_s; });
    const double jobs_used = pmed([](const PipelineSample& s) { return double(s.jobs); });
    add("analysis.pipeline_s", pipeline_s, "s");
    add("analysis.render_s", pmed([](const PipelineSample& s) { return s.render_s; }), "s");
    add("analysis.jobs", jobs_used, "count");
    add("analysis.parallel_efficiency",
        pipeline_s > 0 && jobs_used > 0 ? accumulate_total / (jobs_used * pipeline_s) : 0,
        "ratio");
    // timer
    add("timer.ops.set", Median(tset), "count");
    add("timer.ops.reschedule", Median(tres), "count");
    add("timer.ops.cancel", Median(tcan), "count");
    add("timer.ops.expire", Median(texp), "count");
    add("timer.deadline_cache_miss_ratio", Median(miss), "ratio");
    add("timer.lock_contended", Median(contended), "count");
    for (const char* op : kTimedOps) {
      const std::string prefix = std::string("timer.op_cycles.") + op;
      add(prefix + ".p50", BucketQuantile(op_cycles[op], 0.50), "cycles");
      add(prefix + ".p99", BucketQuantile(op_cycles[op], 0.99), "cycles");
    }
    // net (C10M)
    auto cmed = [&](auto field) { return med(traced_c10m, field); };
    add("net.c10m.construct_s", cmed([](const C10MSample& s) { return s.construct_s; }), "s");
    add("net.c10m.run_s", cmed([](const C10MSample& s) { return s.run_s; }), "s");
    add("net.c10m.peak_live_timers",
        cmed([](const C10MSample& s) { return double(s.report.peak_live_timers); }), "count");
    add("net.c10m.fires", cmed([](const C10MSample& s) { return double(s.fires); }), "count");
    add("net.c10m.stale_fires",
        cmed([](const C10MSample& s) { return double(s.report.stale_fires); }), "count");
    // Ledger closure: the layer times of one traced iteration over its
    // stage wall times (1.0 = every second accounted for).
    add("ledger.record_closure", pmed([](const PipelineSample& s) {
          return (s.sim_self_s + s.poll_s + s.finish_s + s.encode_s) / s.record_s;
        }), "ratio");
    add("ledger.analyze_closure", pmed([](const PipelineSample& s) {
          return (s.open_s + s.pipeline_s + s.render_s) / s.analyze_s;
        }), "ratio");
    add("ledger.e2e_closure",
        is_c10m ? cmed([](const C10MSample& s) { return (s.construct_s + s.run_s) / s.e2e_s; })
                : pmed([](const PipelineSample& s) {
                    return (s.sim_self_s + s.poll_s + s.finish_s + s.encode_s + s.open_s +
                            s.pipeline_s + s.render_s) /
                           (s.record_s + s.analyze_s);
                  }),
        "ratio");
    // Tracing overhead: traced minus untraced iterations of this run.
    const std::vector<double> traced_polls = pooled_polls(traced_pipe);
    add("overhead.e2e_s",
        (is_c10m ? med(traced_c10m, c10m_e2e) : med(traced_pipe, pipe_e2e)) - e2e_s, "s");
    add("overhead.timer_ops_per_s",
        (is_c10m ? med(traced_c10m, c10m_ops) : med(traced_pipe, pipe_ops)) - ops_per_s,
        "ops/s");
    add("overhead.record_s",
        pmed([](const PipelineSample& s) { return s.record_s; }) - record_s, "s");
    add("overhead.analyze_s",
        pmed([](const PipelineSample& s) { return s.analyze_s; }) - analyze_s, "s");
    add("overhead.live_poll_p50_us", Percentile(traced_polls, 0.50) - poll_p50, "us");
    add("overhead.live_poll_p99_us", Percentile(traced_polls, 0.99) - poll_p99, "us");
  }

  if (args.trace && !args.spans.empty()) {
    checks.Expect(log.WriteChromeTrace(args.spans, "e2e_bench " + args.workload),
                  "cannot write the span file");
  }

  // ---- readable report ----
  const size_t plain_n = is_c10m ? plain_c10m.size() : plain_pipe.size();
  const size_t traced_n = is_c10m ? traced_c10m.size() : traced_pipe.size();
  std::printf("workload %s  seed %" PRIu64 "  trace %d  iterations %zu untraced + %zu traced"
              "  measured %.2f s\n",
              args.workload.c_str(), args.seed, args.trace ? 1 : 0, plain_n, traced_n,
              measure_s);
  std::printf("env: hardware_concurrency %u  jobs %zu  lanes %zu  c10m %s  build %s  "
              "compiler %s\n",
              cores, is_c10m ? size_t{0} : jobs, is_c10m ? c10m.lanes : size_t{0},
              is_c10m ? (threaded ? "RunThreaded" : "Run") : "-", E2E_BUILD_TYPE, E2E_COMPILER);
  if (is_c10m) {
    std::printf("size: %zu connections x %.0f s simulated at %.0f ms ticks\n",
                c10m.connections, ToSeconds(c10m.duration), ToMilliseconds(c10m.tick));
    std::printf("digests: c10m fingerprint");
  } else {
    std::printf("size: %.1f simulated minutes, median %.0f records, trace v%u\n",
                ToSeconds(pipeline.duration) / 60.0,
                med(plain_pipe, [](const PipelineSample& s) { return double(s.records); }),
                pipeline.write.version);
    std::printf("digests: report");
  }
  // One digest for the whole run, over the per-seed digests in seed order.
  uint64_t run_digest = 0xcbf29ce484222325ULL;
  for (const auto& [seed, d] : digests) {
    std::printf(" seed %" PRIu64 "=%s", seed, Hex(d).c_str());
    run_digest = (run_digest ^ d) * 0x100000001b3ULL;
  }
  std::printf("\n");
  std::printf("e2e_s per untraced iteration:");
  if (is_c10m) {
    for (const C10MSample& s : plain_c10m) std::printf(" %.4f", c10m_e2e(s));
  } else {
    for (const PipelineSample& s : plain_pipe) std::printf(" %.4f", pipe_e2e(s));
    std::printf("\nrecord_s + analyze_s per untraced iteration:");
    for (const PipelineSample& s : plain_pipe) {
      std::printf(" %.3f+%.3f", s.record_s, s.analyze_s);
    }
  }
  std::printf("\n");
  std::printf("checks: %" PRIu64 " attempted, %" PRIu64 " failed\n", checks.attempted,
              checks.failed);
  for (const std::string& failure : checks.failures) {
    std::printf("  FAILED: %s\n", failure.c_str());
  }
  if (!args.trace) {
    for (const Metric& m : metrics) {
      std::printf("  %-34s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
    if (is_c10m) {
      std::printf("  %-34s %14s (pipelines only)\n", "record_s analyze_s live_poll_*", "-");
    } else {
      for (const Metric& m : stage) {
        std::printf("  %-34s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
      }
    }
  } else {
    for (const Metric& m : metrics) {
      std::printf("  %-34s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
  }

  // ---- the machine-readable last line ----
  std::printf("{\"workload\":");
  PrintJsonString(args.workload);
  std::printf(",\"seed\":%" PRIu64 ",\"trace\":%d,\"digest\":\"%s\","
              "\"iterations\":%zu,\"traced_iterations\":%zu,"
              "\"env\":{\"hardware_concurrency\":%u,\"jobs\":%zu,\"lanes\":%zu,"
              "\"c10m_mode\":\"%s\",\"build_type\":\"%s\",\"compiler\":\"%s\"},"
              "\"attempted\":%" PRIu64 ",\"failed\":%" PRIu64 ",\"failures\":[",
              args.seed, args.trace ? 1 : 0, Hex(run_digest).c_str(), plain_n,
              traced_n, cores, is_c10m ? size_t{0} : jobs, is_c10m ? c10m.lanes : size_t{0},
              is_c10m ? (threaded ? "RunThreaded" : "Run") : "-", E2E_BUILD_TYPE,
              E2E_COMPILER, checks.attempted, checks.failed);
  for (size_t i = 0; i < checks.failures.size(); ++i) {
    if (i > 0) {
      std::fputc(',', stdout);
    }
    PrintJsonString(checks.failures[i]);
  }
  std::printf("],\"metrics\":{");
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\":{\"value\":%.17g,\"unit\":\"%s\"}", i > 0 ? "," : "",
                metrics[i].name.c_str(), metrics[i].value, metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
  return checks.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace e2e
}  // namespace tempo

int main(int argc, char** argv) { return tempo::e2e::Main(argc, argv); }

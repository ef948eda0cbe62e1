#include "src/analysis/latency.h"

#include <algorithm>
#include <bit>
#include <cinttypes>
#include <cstdio>
#include <utility>

#include "src/analysis/render.h"
#include "src/sim/time.h"

namespace tempo {

namespace {

size_t BucketIndex(uint64_t sample) {
  const size_t width = static_cast<size_t>(std::bit_width(sample));
  return width < SlackHist::kBucketCount ? width : SlackHist::kBucketCount - 1;
}

uint64_t BucketLowerBound(size_t i) {
  return i == 0 ? 0 : (i == 1 ? 1 : uint64_t{1} << (i - 1));
}

uint64_t BucketUpperBound(size_t i) {
  return i == 0 ? 1 : (i >= 63 ? UINT64_MAX : uint64_t{1} << i);
}

}  // namespace

void SlackHist::Record(uint64_t sample) {
  ++buckets[BucketIndex(sample)];
  ++count;
  sum += sample;
  if (sample < min || count == 1) {
    min = sample;
  }
  if (sample > max) {
    max = sample;
  }
}

void SlackHist::Merge(const SlackHist& other) {
  if (other.count == 0) {
    return;
  }
  for (size_t i = 0; i < kBucketCount; ++i) {
    buckets[i] += other.buckets[i];
  }
  if (count == 0 || other.min < min) {
    min = other.min;
  }
  if (other.max > max) {
    max = other.max;
  }
  count += other.count;
  sum += other.sum;
}

double SlackHist::Quantile(double q) const {
  // Same interpolation as obs::Histogram::Quantile so live gauges and
  // offline reports agree digit for digit.
  if (count == 0) {
    return 0.0;
  }
  q = std::clamp(q, 0.0, 1.0);
  const double rank = q * static_cast<double>(count - 1) + 1.0;
  uint64_t seen = 0;
  for (size_t i = 0; i < kBucketCount; ++i) {
    if (buckets[i] == 0) {
      continue;
    }
    const uint64_t in_bucket = buckets[i];
    if (static_cast<double>(seen + in_bucket) >= rank) {
      const double lo = static_cast<double>(BucketLowerBound(i));
      const double hi = static_cast<double>(BucketUpperBound(i));
      const double frac = (rank - static_cast<double>(seen)) / static_cast<double>(in_bucket);
      double v = lo + (hi - lo) * frac;
      v = std::max(v, static_cast<double>(min));
      v = std::min(v, static_cast<double>(max));
      return v;
    }
    seen += in_bucket;
  }
  return static_cast<double>(max);
}

uint64_t SlackHist::QuantileNs(double q) const {
  const double ns = Quantile(q);
  return ns >= 0x1p64 ? UINT64_MAX : static_cast<uint64_t>(ns);
}

SlackClass SlackClassFor(uint16_t flags) {
  if ((flags & kFlagDeferrable) != 0) {
    return SlackClass::kDeferrable;
  }
  if ((flags & kFlagRounded) != 0) {
    return SlackClass::kRounded;
  }
  if ((flags & kFlagHighRes) != 0) {
    return SlackClass::kHighRes;
  }
  return SlackClass::kPlain;
}

const char* SlackClassName(SlackClass c) {
  switch (c) {
    case SlackClass::kDeferrable:
      return "deferrable";
    case SlackClass::kRounded:
      return "rounded";
    case SlackClass::kHighRes:
      return "highres";
    case SlackClass::kPlain:
      return "plain";
  }
  return "?";
}

void SlackState::CloseFired(const OpenArm& arm, SimTime fire) {
  // What the caller asked for, what the kernel scheduled after rounding.
  // Decoded times may lie anywhere in int64_t: a request past INT64_MAX
  // saturates there, so a fire before it counts as early, and the gaps
  // are unsigned distances.
  const SimTime requested =
      arm.timeout > 0 ? SaturatingAdd(arm.set_time, arm.timeout)
                      : (arm.expiry > 0 ? arm.expiry : arm.set_time);
  const SimTime deadline = arm.expiry > 0 ? arm.expiry : requested;

  uint64_t slack = 0;
  if (fire >= requested) {
    slack = Distance(fire, requested);
  } else {
    // Fired before the request — an expiry clamped by a monotonic
    // Advance, or an absolute set already in the past.
    ++early_fires_;
  }
  const uint64_t firing = fire > deadline ? Distance(fire, deadline) : 0;
  const uint64_t skew = deadline > requested ? Distance(deadline, requested) : 0;

  total_.Record(slack);
  firing_.Record(firing);
  skew_.Record(skew);
  classes_[static_cast<size_t>(SlackClassFor(arm.flags))].Record(slack);
  by_pid_[arm.pid].Add(slack);
  by_callsite_[arm.callsite].Add(slack);
}

void SlackState::EndSpan(const OpenArm& arm, EpisodeEnd end, SimTime at) {
  switch (end) {
    case EpisodeEnd::kReset:
      // Arming a pending timer abandons the previous span.
      ++rearmed_spans_;
      break;
    case EpisodeEnd::kCanceled:
      ++canceled_spans_;
      break;
    case EpisodeEnd::kExpired:
      CloseFired(arm, at);
      break;
    case EpisodeEnd::kOpen:
      break;
  }
}

void SlackState::Accumulate(std::span<const TraceRecord> records) {
  for (const TraceRecord& r : records) {
    if (r.op == TimerOp::kInit) {
      continue;
    }
    auto& entry = join_.Touch(r);
    if (entry.open) {
      EndSpan(entry.value, EndFor(r.op, r.flags), r.timestamp);
      if (!IsArm(r.op)) {
        join_.Disarm(entry);
      }
    } else if (!IsArm(r.op)) {
      ++unmatched_closes_;
    }
    if (IsArm(r.op)) {
      join_.Arm(entry, OpenArm{r.timestamp, r.timeout, r.expiry, r.callsite, r.pid, r.flags});
    }
  }
}

void SlackState::Merge(SlackState&& later) {
  if (join_.size() == 0) {
    // No non-init record yet, so every aggregate is still empty.
    *this = std::move(later);
    return;
  }
  total_.Merge(later.total_);
  firing_.Merge(later.firing_);
  skew_.Merge(later.skew_);
  for (size_t i = 0; i < kSlackClassCount; ++i) {
    classes_[i].Merge(later.classes_[i]);
  }
  canceled_spans_ += later.canceled_spans_;
  rearmed_spans_ += later.rearmed_spans_;
  early_fires_ += later.early_fires_;
  unmatched_closes_ += later.unmatched_closes_;
  for (const auto& [pid, blame] : later.by_pid_) {
    by_pid_[pid].Merge(blame);
  }
  for (const auto& [callsite, blame] : later.by_callsite_) {
    by_callsite_[callsite].Merge(blame);
  }
  // Close our still-open arms with the later range's first operation on
  // the same timer. The later range counted a closing op there as
  // unmatched (it had no arm for it), so re-attribute it.
  join_.Merge(
      std::move(later.join_),
      [this](const OpenArm& arm, const FirstOp& first) {
        EndSpan(arm, EndFor(first.op, first.flags), first.timestamp);
        if (!IsArm(first.op)) {
          --unmatched_closes_;
        }
      },
      [](const OpenArm& arm) { return arm; });
}

std::unique_ptr<AnalysisPass> LatencyPass::Fork() const {
  return std::make_unique<LatencyPass>(callsites_, options_);
}

void LatencyPass::Accumulate(std::span<const TraceRecord> records) {
  state_.Accumulate(records);
}

void LatencyPass::Merge(AnalysisPass&& other) {
  state_.Merge(std::move(static_cast<LatencyPass&&>(other).state_));
}

void LatencyPass::Render(RenderSink& sink) {
  sink.Section("latency", RenderLatencyReport(state_, callsites_, {}, options_.top_k));
}

namespace {

std::string HistRow(const char* label, const SlackHist& h) {
  char line[192];
  if (h.empty()) {
    std::snprintf(line, sizeof(line), "  %-12s %10" PRIu64 " spans\n", label, h.count);
    return line;
  }
  std::snprintf(line, sizeof(line),
                "  %-12s %10" PRIu64 " spans  p50 %10s  p99 %10s  max %10s\n", label,
                h.count, FormatDistance(h.QuantileNs(0.50)).c_str(),
                FormatDistance(h.QuantileNs(0.99)).c_str(), FormatDistance(h.max).c_str());
  return line;
}

// Top-K rows of a blame map, sorted by slack_sum descending (key ascending
// on ties, so the table is deterministic for any merge order).
template <typename Key>
std::vector<std::pair<Key, SlackBlame>> TopK(const std::map<Key, SlackBlame>& blame,
                                             size_t top_k) {
  std::vector<std::pair<Key, SlackBlame>> rows(blame.begin(), blame.end());
  std::sort(rows.begin(), rows.end(), [](const auto& x, const auto& y) {
    if (x.second.slack_sum != y.second.slack_sum) {
      return x.second.slack_sum > y.second.slack_sum;
    }
    return x.first < y.first;
  });
  if (rows.size() > top_k) {
    rows.resize(top_k);
  }
  return rows;
}

std::vector<std::string> BlameRow(const std::string& who, const SlackBlame& b) {
  char spans[32];
  std::snprintf(spans, sizeof(spans), "%" PRIu64, b.spans);
  const uint64_t mean = b.spans == 0 ? 0 : b.slack_sum / b.spans;
  return {who, spans, FormatDistance(b.slack_sum), FormatDistance(mean),
          FormatDistance(b.slack_max)};
}

}  // namespace

std::string RenderLatencyReport(const SlackState& state, const CallsiteRegistry* callsites,
                                const std::map<Pid, std::string>& process_names,
                                size_t top_k) {
  std::string out = "firing slack:\n";
  char line[192];
  std::snprintf(line, sizeof(line),
                "  %" PRIu64 " fired  %" PRIu64 " canceled  %" PRIu64 " re-armed  %" PRIu64
                " open  %" PRIu64 " early  %" PRIu64 " unmatched\n",
                state.fired_spans(), state.canceled_spans(), state.rearmed_spans(),
                state.open_spans(), state.early_fires(), state.unmatched_closes());
  out += line;
  out += HistRow("total", state.total());
  out += HistRow("  machinery", state.firing());
  out += HistRow("  rounding", state.skew());
  out += "slack by class:\n";
  for (size_t i = 0; i < kSlackClassCount; ++i) {
    const SlackClass c = static_cast<SlackClass>(i);
    if (state.cls(c).empty()) {
      continue;
    }
    out += HistRow(SlackClassName(c), state.cls(c));
  }

  const auto pid_rows = TopK(state.by_pid(), top_k);
  if (!pid_rows.empty()) {
    out += "slack by process:\n";
    std::vector<std::vector<std::string>> rows;
    for (const auto& [pid, blame] : pid_rows) {
      std::string who;
      const auto name = process_names.find(pid);
      if (name != process_names.end()) {
        who = name->second;
      } else if (pid == kKernelPid) {
        who = "kernel";
      } else {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "pid %d", pid);
        who = buf;
      }
      rows.push_back(BlameRow(who, blame));
    }
    out += RenderTable({"process", "spans", "slack", "mean", "max"}, rows);
  }

  const auto callsite_rows = TopK(state.by_callsite(), top_k);
  if (!callsite_rows.empty()) {
    out += "slack by call-site:\n";
    std::vector<std::vector<std::string>> rows;
    for (const auto& [callsite, blame] : callsite_rows) {
      std::string who;
      if (callsites != nullptr) {
        who = callsites->Name(callsite);
      } else {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "callsite %u", callsite);
        who = buf;
      }
      rows.push_back(BlameRow(who, blame));
    }
    out += RenderTable({"call-site", "spans", "slack", "mean", "max"}, rows);
  }
  return out;
}

}  // namespace tempo

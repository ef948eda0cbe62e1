#include "src/trace/buffer.h"

#include <utility>

namespace tempo {

namespace {

obs::Counter* SinkCounter(const char* name, const char* sink, const char* help) {
  return obs::Registry::Global().GetCounter(name, {{"sink", sink}}, help);
}

constexpr char kLoggedHelp[] = "Trace records accepted by the sink";
constexpr char kDroppedHelp[] = "Trace records dropped or discarded by the sink";
constexpr char kChargedHelp[] = "CPU cycles charged for logging, by sink";

}  // namespace

NullSink::NullSink()
    : metric_discarded_(SinkCounter("trace_records_dropped", "null", kDroppedHelp)) {}

void NullSink::Log(const TraceRecord& record) {
  (void)record;
  ++discarded_;
  metric_discarded_->Inc();
}

TraceRecorder::TraceRecorder(const char* sink, size_t capacity)
    : capacity_(capacity),
      metric_logged_(SinkCounter("trace_records_logged", sink, kLoggedHelp)),
      metric_dropped_(capacity == kUnbounded
                          ? nullptr
                          : SinkCounter("trace_records_dropped", sink, kDroppedHelp)),
      metric_charged_(SinkCounter("trace_charged_cycles", sink, kChargedHelp)) {}

void TraceRecorder::Log(const TraceRecord& record) {
  if (cpu_ != nullptr) {
    cpu_->ChargeCycles(cost_cycles_);
    metric_charged_->Inc(cost_cycles_);
  }
  if (records_.size() >= capacity_) {
    ++dropped_;  // relayfs semantics: drop new, keep old
    metric_dropped_->Inc();
    return;
  }
  records_.push_back(record);
  if (live_tap_ != nullptr) {
    live_tap_->TryLog(record);
  }
  metric_logged_->Inc();
}

std::vector<TraceRecord> TraceRecorder::TakeRecords() {
  dropped_ = 0;
  return std::exchange(records_, {});
}

}  // namespace tempo

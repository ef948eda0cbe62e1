#include "src/trace/relay.h"

#include <algorithm>
#include <cstddef>
#include <utility>

namespace tempo {

namespace {

// Watermark sentinel: below every real timestamp.
constexpr SimTime kBeforeAllTime = INT64_MIN;

constexpr char kRecordsHelp[] = "Trace records harvested from a relay channel";
constexpr char kDroppedHelp[] =
    "Trace records dropped by a full relay channel (relayfs no-overwrite)";

}  // namespace

RelayChannelConfig RelayChannelConfig::ForCapacity(size_t records) {
  RelayChannelConfig config;
  if (records == 0) {
    records = 1;
  }
  config.sub_buffer_records = std::min<size_t>(records, config.sub_buffer_records);
  config.sub_buffer_count =
      (records + config.sub_buffer_records - 1) / config.sub_buffer_records + 1;
  return config;
}

RelayChannel::RelayChannel(std::string name, RelayChannelConfig config)
    : name_(std::move(name)),
      sub_records_(std::max<size_t>(1, config.sub_buffer_records)),
      slots_(std::max<size_t>(2, config.sub_buffer_count)) {}

bool RelayChannel::TryLog(const TraceRecord& record) {
  Slot& slot = slots_[produced_local_ % slots_.size()];
  if (open_count_ == 0) {
    // Opening a new sub-buffer: it must have been released by the consumer.
    // Relayfs no-overwrite semantics — when the ring is full, the new
    // record is dropped and the old ones stay.
    if (produced_local_ - consumed_.load(std::memory_order_acquire) >= slots_.size()) {
      dropped_.store(++dropped_local_, std::memory_order_relaxed);
      return false;
    }
    if (slot.records == nullptr) {
      slot.records = std::make_unique<TraceRecord[]>(sub_records_);
    }
  }
  slot.records[open_count_++] = record;  // plain store: producer owns the slot
  accepted_.store(++accepted_local_, std::memory_order_relaxed);
  if (open_count_ == sub_records_) {
    Publish();
  }
  return true;
}

void RelayChannel::Publish() {
  Slot& slot = slots_[produced_local_ % slots_.size()];
  slot.count = static_cast<uint32_t>(open_count_);
  open_count_ = 0;
  // The release pairs with Harvest's acquire: the consumer sees the slot's
  // records and count before it sees the advanced cursor.
  produced_.store(++produced_local_, std::memory_order_release);
}

void RelayChannel::FlushOpen() {
  // The open sub-buffer was claimed from the consumer when its first record
  // was written, so a non-empty one is always publishable.
  if (open_count_ > 0) {
    Publish();
  }
}

void RelayChannel::Close() {
  FlushOpen();
  closed_.store(true, std::memory_order_release);
}

size_t RelayChannel::Harvest(std::vector<TraceRecord>* out) {
  const uint64_t produced = produced_.load(std::memory_order_acquire);
  size_t harvested = 0;
  while (consumed_local_ < produced) {
    const Slot& slot = slots_[consumed_local_ % slots_.size()];
    out->insert(out->end(), slot.records.get(), slot.records.get() + slot.count);
    harvested += slot.count;
    // Release hands the slot back to the producer only after the copy-out.
    consumed_.store(++consumed_local_, std::memory_order_release);
  }
  return harvested;
}

RelayChannel* RelayChannelSet::Register(const std::string& name,
                                        RelayChannelConfig config) {
  std::lock_guard<std::mutex> lock(register_mu_);
  channels_.emplace_back(name, config);
  RelayChannel* channel = &channels_.back();
  channel->metric_records_ = obs::Registry::Global().GetCounter(
      "trace_relay_records", {{"channel", name}}, kRecordsHelp);
  channel->metric_dropped_ = obs::Registry::Global().GetCounter(
      "trace_relay_dropped", {{"channel", name}}, kDroppedHelp);
  // The count is published after the channel is fully constructed, so a
  // concurrently polling drainer sees a consistent prefix.
  count_.store(channels_.size(), std::memory_order_release);
  return channel;
}

void RelayChannelSet::CloseAll() {
  const size_t n = size();
  for (size_t i = 0; i < n; ++i) {
    channel(i)->Close();
  }
}

RelayDrainer::RelayDrainer(RelayChannelSet* channels, EmitFn emit, bool instrumented)
    : channels_(channels), emit_(std::move(emit)) {
  if (instrumented) {
    obs::Registry& registry = obs::Registry::Global();
    metric_polls_ = registry.GetCounter("trace_relay_drainer_polls", {},
                                        "RelayDrainer harvest passes");
    metric_emitted_ = registry.GetCounter(
        "trace_relay_drainer_emitted", {}, "Records emitted by the drainer's ordered merge");
  }
}

void RelayDrainer::HarvestAll() {
  const size_t n = channels_->size();
  if (lanes_.size() < n) {
    lanes_.resize(n);
  }
  for (size_t i = 0; i < n; ++i) {
    RelayChannel* channel = channels_->channel(i);
    Lane& lane = lanes_[i];
    // Drop the consumed prefix once it is at least half the lane, which
    // costs amortised O(1) per record. Waiting for the lane to empty is
    // not enough: the watermark rule always holds back the records at
    // the newest harvested timestamp, so a lane polled while its producer
    // runs never empties.
    if (lane.head > 0 && 2 * lane.head >= lane.staged.size()) {
      lane.staged.erase(lane.staged.begin(),
                        lane.staged.begin() + static_cast<std::ptrdiff_t>(lane.head));
      lane.head = 0;
    }
    // Order matters: read closed before harvesting (see Lane::closed).
    lane.closed = channel->closed();
    const size_t harvested = channel->Harvest(&lane.staged);
    if (harvested > 0) {
      lane.saw_records = true;
      lane.watermark = std::max(lane.watermark, lane.staged.back().timestamp);
    }
    // Mirror the channel's tallies into obs from the drainer thread only
    // (obs instruments are not internally synchronised).
    channel->obs_records_synced_ += harvested;
    if (channel->metric_records_ != nullptr) {
      channel->metric_records_->AdvanceTo(channel->obs_records_synced_);
    }
    if (channel->metric_dropped_ != nullptr) {
      channel->metric_dropped_->AdvanceTo(channel->dropped());
    }
  }
}

size_t RelayDrainer::EmitMerged(SimTime bound, bool bounded) {
  size_t emitted = 0;
  while (true) {
    Lane* best = nullptr;
    for (Lane& lane : lanes_) {
      if (lane.head >= lane.staged.size()) {
        continue;
      }
      // Ties go to the lowest channel index: the scan order makes the
      // merge stable without an explicit sequence key.
      if (best == nullptr ||
          lane.staged[lane.head].timestamp < best->staged[best->head].timestamp) {
        best = &lane;
      }
    }
    if (best == nullptr) {
      break;
    }
    const TraceRecord& record = best->staged[best->head];
    if (bounded && record.timestamp >= bound) {
      break;
    }
    emit_(record);
    ++best->head;
    ++emitted;
  }
  emitted_ += emitted;
  if (metric_emitted_ != nullptr) {
    metric_emitted_->Inc(emitted);
  }
  return emitted;
}

size_t RelayDrainer::Poll() {
  if (metric_polls_ != nullptr) {
    metric_polls_->Inc();
  }
  HarvestAll();
  // Watermark rule: a record is safe to emit once it is strictly below
  // every open channel's largest harvested timestamp — no producer can
  // publish an earlier record any more (per-channel monotonicity). A
  // channel seen closed before its harvest has everything staged already,
  // so it cannot hold the merge back (its staged records still compete in
  // EmitMerged); a channel that has produced nothing yet holds everything
  // back.
  SimTime bound = kNeverTime;
  for (const Lane& lane : lanes_) {
    if (lane.closed) {
      continue;
    }
    bound = std::min(bound, lane.saw_records ? lane.watermark : kBeforeAllTime);
  }
  return EmitMerged(bound, /*bounded=*/true);
}

size_t RelayDrainer::Finish(bool flush_open_channels) {
  const size_t n = channels_->size();
  for (size_t i = 0; i < n; ++i) {
    RelayChannel* channel = channels_->channel(i);
    // Flushing is a producer-side operation: safe for closed channels (the
    // release/acquire on closed_ orders the producer's last write before
    // ours) and for open ones only under the caller's quiescence promise.
    if (channel->closed() || flush_open_channels) {
      channel->FlushOpen();
    }
  }
  HarvestAll();
  return EmitMerged(0, /*bounded=*/false);
}

size_t RelayDrainer::staged() const {
  size_t total = 0;
  for (const Lane& lane : lanes_) {
    total += lane.staged.size() - lane.head;
  }
  return total;
}

}  // namespace tempo

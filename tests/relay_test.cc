// Relay channels, drainer merge, and the streaming v2 writer.
//
// The recording path's contracts, from relay.h:
//   * SPSC channels: plain-store logging, release publication, drop-new
//     overflow with per-channel counting (relayfs no-overwrite semantics).
//   * The drainer's merge is stable and globally timestamp-ordered, and
//     lossless below capacity — including under real multi-producer
//     interleaving (these tests run under the TSan CI job).
//   * TraceStreamWriter output is byte-identical to the buffered
//     SerializeTrace path for the same record sequence (tracefile_test's
//     TraceWriterTest holds every writer to the same bytes across formats,
//     chunk sizes and trace shapes).
//   * TimerService shards log kSet/kCancel/kExpire through per-shard
//     channels; Simulator::SchedulePeriodic drives a drainer from the
//     event loop.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/sim/simulator.h"
#include "src/timer/timer_service.h"
#include "src/trace/buffer.h"
#include "src/trace/file.h"
#include "src/trace/relay.h"
#include "src/trace/stream_writer.h"
#include "tests/trace_sweep.h"

// Global operator new replacements that count calls while
// g_count_allocations is set (RelayDrainerTest.PolledLaneStopsGrowing).
// Every form, and every matching delete, goes through malloc and free, so
// a sanitizer still sees one allocator family.
namespace {
std::atomic<bool> g_count_allocations{false};
std::atomic<uint64_t> g_allocations{0};

void* CountedMalloc(std::size_t n) {
  if (g_count_allocations.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  return std::malloc(n == 0 ? 1 : n);
}

void* CountedNew(std::size_t n) {
  if (void* p = CountedMalloc(n)) {
    return p;
  }
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t n) { return CountedNew(n); }
void* operator new[](std::size_t n) { return CountedNew(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept { return CountedMalloc(n); }
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept { return CountedMalloc(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace tempo {
namespace {

TraceRecord Rec(SimTime ts, uint64_t timer = 1, TimerOp op = TimerOp::kSet) {
  TraceRecord r;
  r.timestamp = ts;
  r.timer = timer;
  r.op = op;
  return r;
}

std::vector<uint8_t> ReadAll(const std::string& path) {
  std::vector<uint8_t> bytes;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return bytes;
  }
  uint8_t buf[1 << 14];
  size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    bytes.insert(bytes.end(), buf, buf + n);
  }
  std::fclose(f);
  return bytes;
}

// --- RelayChannel ---

TEST(RelayChannelTest, PublishesFullSubBuffersInOrder) {
  RelayChannelConfig config;
  config.sub_buffer_records = 4;
  config.sub_buffer_count = 3;
  RelayChannel channel("t", config);
  std::vector<TraceRecord> out;
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(channel.TryLog(Rec(i)));
  }
  // One full sub-buffer (4 records) is published; the fifth is still open.
  EXPECT_EQ(channel.Harvest(&out), 4u);
  channel.FlushOpen();
  EXPECT_EQ(channel.Harvest(&out), 1u);
  ASSERT_EQ(out.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(out[static_cast<size_t>(i)].timestamp, i);
  }
  EXPECT_EQ(channel.accepted(), 5u);
  EXPECT_EQ(channel.dropped(), 0u);
}

TEST(RelayChannelTest, OverflowDropsNewNeverOverwrites) {
  RelayChannelConfig config;
  config.sub_buffer_records = 2;
  config.sub_buffer_count = 2;
  RelayChannel channel("t", config);
  // Ring holds 4 records with no consumer; everything beyond is dropped.
  for (int i = 0; i < 10; ++i) {
    channel.TryLog(Rec(i));
  }
  EXPECT_EQ(channel.accepted(), 4u);
  EXPECT_EQ(channel.dropped(), 6u);
  std::vector<TraceRecord> out;
  channel.Harvest(&out);
  ASSERT_EQ(out.size(), 4u);
  EXPECT_EQ(out.front().timestamp, 0);
  EXPECT_EQ(out.back().timestamp, 3);  // the old records, not the new ones
  // A freed sub-buffer accepts again.
  EXPECT_TRUE(channel.TryLog(Rec(10)));
}

TEST(RelayChannelTest, DefaultCapacityDerivedFromPaperBufferSize) {
  // The 512 MiB relayfs budget expressed in records, derived in one place
  // from sizeof(TraceRecord) — not a hard-coded count.
  EXPECT_EQ(kRelayDefaultCapacity, (size_t{512} << 20) / sizeof(TraceRecord));
  EXPECT_EQ(TraceRecorder().capacity(), kRelayDefaultCapacity);
  // ForCapacity covers at least the asked-for records.
  for (const size_t records : {1u, 5u, 4096u, 10000u}) {
    EXPECT_GE(RelayChannelConfig::ForCapacity(records).capacity_records(), records);
  }
}

// --- RelayDrainer ---

TEST(RelayDrainerTest, MergesChannelsInTimestampOrder) {
  RelayChannelSet channels;
  RelayChannel* a = channels.Register("a");
  RelayChannel* b = channels.Register("b");
  std::vector<TraceRecord> merged;
  RelayDrainer drainer(&channels, [&](const TraceRecord& r) { merged.push_back(r); });
  for (const SimTime ts : {1, 4, 5}) {
    a->TryLog(Rec(ts, 100));
  }
  for (const SimTime ts : {2, 3, 6}) {
    b->TryLog(Rec(ts, 200));
  }
  channels.CloseAll();
  drainer.Finish();
  ASSERT_EQ(merged.size(), 6u);
  for (size_t i = 0; i < merged.size(); ++i) {
    EXPECT_EQ(merged[i].timestamp, static_cast<SimTime>(i + 1));
  }
}

TEST(RelayDrainerTest, PollHoldsBackRecordsAboveTheWatermark) {
  RelayChannelConfig config;
  config.sub_buffer_records = 1;  // publish every record immediately
  RelayChannelSet channels;
  RelayChannel* a = channels.Register("a", config);
  RelayChannel* b = channels.Register("b", config);
  std::vector<TraceRecord> merged;
  RelayDrainer drainer(&channels, [&](const TraceRecord& r) { merged.push_back(r); });

  a->TryLog(Rec(10));
  // b has produced nothing: no record is provably orderable yet.
  drainer.Poll();
  EXPECT_TRUE(merged.empty());
  EXPECT_EQ(drainer.staged(), 1u);

  b->TryLog(Rec(5));
  // Watermarks are now a=10, b=5: only records below min(10, 5) may go.
  drainer.Poll();
  EXPECT_TRUE(merged.empty());

  b->TryLog(Rec(20));
  drainer.Poll();  // bound = min(10, 20): b's 5 is emittable, a's 10 is not
  ASSERT_EQ(merged.size(), 1u);
  EXPECT_EQ(merged[0].timestamp, 5);

  // A closed channel stops holding the merge back.
  a->Close();
  drainer.Poll();
  ASSERT_EQ(merged.size(), 2u);
  EXPECT_EQ(merged[1].timestamp, 10);

  channels.CloseAll();
  drainer.Finish();
  ASSERT_EQ(merged.size(), 3u);
  EXPECT_EQ(merged[2].timestamp, 20);
  EXPECT_EQ(drainer.emitted(), 3u);
}

TEST(RelayDrainerTest, StableForEqualTimestamps) {
  RelayChannelSet channels;
  RelayChannel* a = channels.Register("a");
  RelayChannel* b = channels.Register("b");
  std::vector<TraceRecord> merged;
  RelayDrainer drainer(&channels, [&](const TraceRecord& r) { merged.push_back(r); });
  a->TryLog(Rec(5, 100));
  a->TryLog(Rec(5, 101));
  b->TryLog(Rec(5, 200));
  channels.CloseAll();
  drainer.Finish();
  ASSERT_EQ(merged.size(), 3u);
  // Ties break by registration order, FIFO within a channel.
  EXPECT_EQ(merged[0].timer, 100u);
  EXPECT_EQ(merged[1].timer, 101u);
  EXPECT_EQ(merged[2].timer, 200u);
}

// A lane polled while its producer runs never empties: the watermark
// always holds back the records at the newest harvested timestamp. The
// drainer must still keep only the lane's unconsumed tail, so once the
// lane has reached its steady size, polling allocates nothing.
TEST(RelayDrainerTest, PolledLaneStopsGrowing) {
  RelayChannelSet channels;
  RelayChannelConfig config;
  config.sub_buffer_records = 64;
  RelayChannel* lane = channels.Register("steady", config);
  uint64_t emitted = 0;
  RelayDrainer drainer(&channels, [&emitted](const TraceRecord&) { ++emitted; });
  SimTime now = 0;
  auto round = [&] {
    for (int i = 0; i < 20; ++i) {
      lane->TryLog(Rec(++now));
    }
    lane->TryLog(Rec(now));  // a tie at the newest timestamp
    lane->FlushOpen();
    drainer.Poll();
    // Both records at the newest timestamp stay staged.
    EXPECT_EQ(drainer.staged(), 2u);
  };
  for (int i = 0; i < 64; ++i) {
    round();
  }
  g_allocations = 0;
  g_count_allocations = true;
  for (int i = 0; i < 1024; ++i) {
    round();
  }
  g_count_allocations = false;
  EXPECT_EQ(g_allocations.load(), 0u);
  EXPECT_EQ(emitted, (64u + 1024u) * 21 - 2);
}

// --- TraceStreamWriter ---

class StreamWriterTest : public ::testing::Test {
 protected:
  // One file per test: ctest runs these tests as parallel processes.
  std::string Path() const {
    return testing::TempDir() + "/stream_writer_test_" +
           testing::UnitTest::GetInstance()->current_test_info()->name() + ".trc";
  }
  void TearDown() override { std::remove(Path().c_str()); }
};

TEST_F(StreamWriterTest, ByteIdenticalToBufferedSerialization) {
  CallsiteRegistry callsites;
  const CallsiteId cs = callsites.Intern("mod_timer");
  std::vector<TraceRecord> records;
  for (int i = 0; i < 1000; ++i) {
    TraceRecord r = Rec(i, static_cast<uint64_t>(i % 17));
    r.callsite = cs;
    records.push_back(r);
  }
  TraceWriteOptions options;
  options.chunk_records = 64;  // several full chunks plus a partial tail

  TraceStreamWriter writer(Path(), &callsites, options);
  for (const TraceRecord& r : records) {
    ASSERT_TRUE(writer.Append(r));
  }
  ASSERT_TRUE(writer.Close());
  EXPECT_EQ(writer.records_written(), records.size());

  EXPECT_EQ(ReadAll(Path()), SerializeTrace(records, callsites, options));
  // No spill file left behind.
  EXPECT_EQ(std::fopen((Path() + ".spill").c_str(), "rb"), nullptr);
}

TEST_F(StreamWriterTest, EmptyTraceMatchesBufferedPath) {
  CallsiteRegistry callsites;
  TraceStreamWriter writer(Path(), &callsites);
  ASSERT_TRUE(writer.Close());
  EXPECT_EQ(ReadAll(Path()), SerializeTrace({}, callsites));
}

TEST_F(StreamWriterTest, StreamedFileRoundTripsThroughReader) {
  CallsiteRegistry callsites;
  callsites.Intern("a");
  TraceWriteOptions options;
  options.chunk_records = 8;
  TraceStreamWriter writer(Path(), &callsites, options);
  for (int i = 0; i < 20; ++i) {
    writer.Append(Rec(i));
  }
  ASSERT_TRUE(writer.Close());
  const Sweep loaded = SweepFile(Path());
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded.records.size(), 20u);
  EXPECT_EQ(loaded.records[19].timestamp, 19);
  EXPECT_EQ(loaded.callsites.size(), callsites.size());
}

TEST_F(StreamWriterTest, RejectsV1) {
  CallsiteRegistry callsites;
  TraceWriteOptions options;
  options.version = kTraceFileVersion;
  TraceStreamWriter writer(Path(), &callsites, options);
  EXPECT_FALSE(writer.ok());
  EXPECT_FALSE(writer.Append(Rec(1)));
  EXPECT_FALSE(writer.Close());
}

// --- multi-producer concurrency (runs under the TSan CI job) ---

TEST(RelayConcurrencyTest, InterleavedProducersMergeOrderedAndLossless) {
  constexpr int kProducers = 4;
  constexpr uint64_t kPerProducer = 5000;
  RelayChannelSet channels;
  std::vector<RelayChannel*> lanes;
  for (int p = 0; p < kProducers; ++p) {
    lanes.push_back(channels.Register("p" + std::to_string(p),
                                      RelayChannelConfig::ForCapacity(kPerProducer)));
  }
  std::vector<TraceRecord> merged;
  RelayDrainer drainer(&channels, [&](const TraceRecord& r) { merged.push_back(r); });

  std::atomic<bool> done{false};
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (uint64_t i = 0; i < kPerProducer; ++i) {
        // Unique, per-channel-increasing timestamps: ts = i*kProducers + p.
        lanes[p]->TryLog(Rec(static_cast<SimTime>(i * kProducers + p),
                             static_cast<uint64_t>(p)));
      }
    });
  }
  std::thread consumer([&] {
    while (!done.load(std::memory_order_acquire)) {
      if (drainer.Poll() == 0) {
        std::this_thread::yield();
      }
    }
  });
  for (auto& t : producers) {
    t.join();
  }
  done.store(true, std::memory_order_release);
  consumer.join();
  channels.CloseAll();
  drainer.Finish();

  ASSERT_EQ(merged.size(), kProducers * kPerProducer);
  for (int p = 0; p < kProducers; ++p) {
    EXPECT_EQ(lanes[p]->dropped(), 0u) << "channel " << p;
  }
  for (size_t i = 0; i < merged.size(); ++i) {
    // The unique-timestamp construction makes the full merge order exact.
    EXPECT_EQ(merged[i].timestamp, static_cast<SimTime>(i));
  }
}

TEST(RelayConcurrencyTest, OverflowDropsAreCountedPerChannel) {
  RelayChannelConfig tiny;
  tiny.sub_buffer_records = 8;
  tiny.sub_buffer_count = 2;
  RelayChannelSet channels;
  RelayChannel* small = channels.Register("small", tiny);
  RelayChannel* big = channels.Register("big");
  constexpr uint64_t kRecords = 10000;

  std::thread writer_small([&] {
    for (uint64_t i = 0; i < kRecords; ++i) {
      small->TryLog(Rec(static_cast<SimTime>(i)));
    }
  });
  std::thread writer_big([&] {
    for (uint64_t i = 0; i < kRecords; ++i) {
      big->TryLog(Rec(static_cast<SimTime>(i)));
    }
  });
  writer_small.join();
  writer_big.join();
  channels.CloseAll();

  std::vector<TraceRecord> merged;
  RelayDrainer drainer(&channels, [&](const TraceRecord& r) { merged.push_back(r); });
  drainer.Finish();

  // The tiny unharvested ring must have dropped; the big one must not, and
  // the counts are independent.
  EXPECT_GT(small->dropped(), 0u);
  EXPECT_EQ(big->dropped(), 0u);
  EXPECT_EQ(small->accepted() + small->dropped(), kRecords);
  EXPECT_EQ(merged.size(), small->accepted() + big->accepted());
  EXPECT_TRUE(std::is_sorted(merged.begin(), merged.end(),
                             [](const TraceRecord& a, const TraceRecord& b) {
                               return a.timestamp < b.timestamp;
                             }));
}

// --- TimerService per-shard tracing ---

TEST(TimerServiceTraceTest, ShardsLogSetCancelExpireThroughChannels) {
  RelayChannelSet channels;
  TimerService::Options options;
  options.shards = 2;
  options.queue = "heap";
  options.stats_label = "trace_test_svc";
  options.trace = &channels;
  TimerService service(options);
  EXPECT_EQ(channels.size(), 2u);

  service.SetTraceTime(100);
  int fired = 0;
  const TimerHandle expiring =
      service.ScheduleOn(0, 500, [&](TimerHandle) { ++fired; });
  const TimerHandle canceled =
      service.ScheduleOn(1, 900, [&](TimerHandle) { ++fired; });
  EXPECT_TRUE(service.Cancel(canceled));
  service.AdvanceAll(600);
  EXPECT_EQ(fired, 1);

  channels.CloseAll();
  std::vector<TraceRecord> merged;
  RelayDrainer drainer(&channels, [&](const TraceRecord& r) { merged.push_back(r); });
  drainer.Finish();

  ASSERT_EQ(merged.size(), 4u);  // set, set, cancel, expire
  int sets = 0, cancels = 0, expires = 0;
  for (const TraceRecord& r : merged) {
    switch (r.op) {
      case TimerOp::kSet:
        ++sets;
        EXPECT_EQ(r.timestamp, 100);
        EXPECT_EQ(r.timeout, r.expiry - 100);
        break;
      case TimerOp::kCancel:
        ++cancels;
        EXPECT_EQ(r.timer, canceled);
        break;
      case TimerOp::kExpire:
        ++expires;
        EXPECT_EQ(r.timer, expiring);  // service handle, reconstructed
        EXPECT_EQ(r.expiry, 500);
        EXPECT_EQ(r.timestamp, 600);   // stamped with AdvanceAll's now
        break;
      default:
        ADD_FAILURE() << "unexpected op";
    }
  }
  EXPECT_EQ(sets, 2);
  EXPECT_EQ(cancels, 1);
  EXPECT_EQ(expires, 1);
  // Global merge is timestamp-ordered.
  EXPECT_TRUE(std::is_sorted(merged.begin(), merged.end(),
                             [](const TraceRecord& a, const TraceRecord& b) {
                               return a.timestamp < b.timestamp;
                             }));
}

TEST(TimerServiceTraceTest, TracingOffLogsNothingAndCostsNoChannels) {
  TimerService::Options options;
  options.shards = 2;
  options.stats_label = "trace_test_svc_off";
  TimerService service(options);
  service.ScheduleOn(0, 500, [](TimerHandle) {});
  service.AdvanceAll(600);  // no trace set: must not crash, nothing to check
}

// --- Simulator::SchedulePeriodic driving a drainer ---

TEST(SchedulePeriodicTest, FiresEveryPeriodWhileTokenHeld) {
  Simulator sim;
  int fires = 0;
  auto token = sim.SchedulePeriodic(10, [&] { ++fires; });
  sim.RunUntil(35);
  EXPECT_EQ(fires, 3);  // t = 10, 20, 30
  token.reset();        // cancel
  sim.RunUntil(100);
  EXPECT_EQ(fires, 3);
}

TEST(SchedulePeriodicTest, DrainerPollsFromTheEventLoop) {
  Simulator sim;
  RelayChannelSet channels;
  RelayChannelConfig config;
  config.sub_buffer_records = 1;  // publish immediately so Poll sees records
  RelayChannel* channel = channels.Register("sim", config);
  std::vector<TraceRecord> merged;
  RelayDrainer drainer(&channels, [&](const TraceRecord& r) { merged.push_back(r); });

  // A producer event every 5 ticks; the drainer polls every 7.
  for (int i = 1; i <= 10; ++i) {
    sim.ScheduleAt(i * 5, [&, i] { channel->TryLog(Rec(sim.Now(), i)); });
  }
  auto token = sim.SchedulePeriodic(7, [&] { drainer.Poll(); });
  sim.RunUntil(60);
  // Mid-run the drainer has already emitted the watermark-safe prefix.
  EXPECT_GT(drainer.emitted(), 0u);
  token.reset();
  channels.CloseAll();
  drainer.Finish();
  ASSERT_EQ(merged.size(), 10u);
  EXPECT_TRUE(std::is_sorted(merged.begin(), merged.end(),
                             [](const TraceRecord& a, const TraceRecord& b) {
                               return a.timestamp < b.timestamp;
                             }));
}

// --- obs plumbing ---

TEST(RelayObsTest, ChannelCountersSyncThroughDrainer) {
  RelayChannelConfig tiny;
  tiny.sub_buffer_records = 2;
  tiny.sub_buffer_count = 2;
  RelayChannelSet channels;
  RelayChannel* channel = channels.Register("obs_sync_test", tiny);
  for (int i = 0; i < 10; ++i) {
    channel->TryLog(Rec(i));  // ring holds 4; 6 dropped
  }
  channels.CloseAll();
  RelayDrainer drainer(&channels, [](const TraceRecord&) {});
  drainer.Finish();

  const auto snapshot = obs::Registry::Global().TakeSnapshot();
  const obs::Labels labels = {{"channel", "obs_sync_test"}};
  const auto* records = snapshot.Find("trace_relay_records", labels);
  const auto* dropped = snapshot.Find("trace_relay_dropped", labels);
  ASSERT_NE(records, nullptr);
  ASSERT_NE(dropped, nullptr);
  EXPECT_EQ(records->value, 4);
  EXPECT_EQ(dropped->value, 6);
}

TEST(RelayObsTest, CounterAdvanceToIsMonotonic) {
  obs::Counter* c = obs::Registry::Global().GetCounter("relay_test_advance_to");
  c->AdvanceTo(10);
  EXPECT_EQ(c->value(), 10u);
  c->AdvanceTo(7);  // never lowers
  EXPECT_EQ(c->value(), 10u);
  c->AdvanceTo(12);
  EXPECT_EQ(c->value(), 12u);
}

}  // namespace
}  // namespace tempo

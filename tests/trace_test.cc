// Unit tests for the tracing layer: call-site interning, buffers, codec.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "src/sim/cpu.h"
#include "src/trace/buffer.h"
#include "src/trace/callsite.h"
#include "src/trace/codec.h"
#include "src/trace/record.h"

namespace tempo {
namespace {

TraceRecord MakeRecord(SimTime at, TimerOp op, TimerId timer) {
  TraceRecord r;
  r.timestamp = at;
  r.op = op;
  r.timer = timer;
  return r;
}

// --- CallsiteRegistry ---

TEST(CallsiteTest, InternIsIdempotent) {
  CallsiteRegistry registry;
  const CallsiteId a = registry.Intern("tcp/retransmit");
  const CallsiteId b = registry.Intern("tcp/retransmit");
  EXPECT_EQ(a, b);
  EXPECT_EQ(registry.Name(a), "tcp/retransmit");
}

TEST(CallsiteTest, UnknownIsSlotZero) {
  CallsiteRegistry registry;
  EXPECT_EQ(registry.Name(kUnknownCallsite), "?");
  EXPECT_EQ(registry.Parent(kUnknownCallsite), kUnknownCallsite);
}

TEST(CallsiteTest, DistinctNamesGetDistinctIds) {
  CallsiteRegistry registry;
  EXPECT_NE(registry.Intern("a"), registry.Intern("b"));
}

TEST(CallsiteTest, ProvenanceChainFollowsParents) {
  CallsiteRegistry registry;
  const CallsiteId ip = registry.Intern("net/ip");
  const CallsiteId tcp = registry.Intern("net/tcp", ip);
  const CallsiteId app = registry.Intern("app/rpc", tcp);
  const auto chain = registry.Chain(app);
  ASSERT_EQ(chain.size(), 3u);
  EXPECT_EQ(chain[0], app);
  EXPECT_EQ(chain[1], tcp);
  EXPECT_EQ(chain[2], ip);
}

TEST(CallsiteTest, ReinternKeepsOriginalParent) {
  CallsiteRegistry registry;
  const CallsiteId parent = registry.Intern("parent");
  const CallsiteId child = registry.Intern("child", parent);
  registry.Intern("child", kUnknownCallsite);  // no-op
  EXPECT_EQ(registry.Parent(child), parent);
}

TEST(CallsiteTest, StackInterningDeduplicates) {
  CallsiteRegistry registry;
  const CallsiteId a = registry.Intern("a");
  const CallsiteId b = registry.Intern("b");
  const StackId s1 = registry.InternStack({a, b});
  const StackId s2 = registry.InternStack({a, b});
  const StackId s3 = registry.InternStack({b, a});
  EXPECT_EQ(s1, s2);
  EXPECT_NE(s1, s3);
  EXPECT_EQ(registry.Stack(s1), (std::vector<CallsiteId>{a, b}));
}

TEST(CallsiteTest, ChainStackMatchesInternedChain) {
  CallsiteRegistry registry;
  const CallsiteId ip = registry.Intern("net/ip");
  const CallsiteId tcp = registry.Intern("net/tcp", ip);
  const CallsiteId app = registry.Intern("app/rpc", tcp);
  // Re-interning with another parent returns the same id and keeps the
  // chain, so the cached stack stays right.
  EXPECT_EQ(registry.Intern("net/tcp", kUnknownCallsite), tcp);
  EXPECT_EQ(registry.ChainStack(kUnknownCallsite), kEmptyStack);
  for (const CallsiteId id : {tcp, app, ip, tcp, app}) {
    SCOPED_TRACE(registry.Name(id));
    const StackId cached = registry.ChainStack(id);
    EXPECT_EQ(cached, registry.InternStack(registry.Chain(id)));
    EXPECT_EQ(registry.Stack(cached), registry.Chain(id));
  }
  // Stack ids keep first-use order: tcp's two-frame chain came first.
  EXPECT_EQ(registry.ChainStack(tcp), 1u);
  EXPECT_EQ(registry.ChainStack(app), 2u);
  EXPECT_EQ(registry.ChainStack(ip), 3u);
  EXPECT_EQ(registry.Stack(registry.ChainStack(app)).size(), 3u);
}

TEST(CallsiteTest, EmptyStackIsSlotZero) {
  CallsiteRegistry registry;
  EXPECT_EQ(registry.InternStack({}), kEmptyStack);
  EXPECT_TRUE(registry.Stack(kEmptyStack).empty());
}

// --- TraceRecorder ---
//
// The suites keep the paper's two buffers apart: RelayBufferTest covers a
// bounded recorder (the Linux relayfs buffer), EtwSessionTest an unbounded
// one (the Vista ETW session).

TEST(RelayBufferTest, StoresRecordsInOrder) {
  TraceRecorder buffer("relay", 16);
  for (int i = 0; i < 5; ++i) {
    buffer.Log(MakeRecord(i, TimerOp::kSet, 1));
  }
  ASSERT_EQ(buffer.records().size(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(buffer.records()[static_cast<size_t>(i)].timestamp, i);
  }
}

TEST(RelayBufferTest, OverflowDropsNewKeepsOld) {
  // relayfs semantics: "new events cannot overwrite old logs".
  TraceRecorder buffer("relay", 3);
  for (int i = 0; i < 10; ++i) {
    buffer.Log(MakeRecord(i, TimerOp::kSet, 1));
  }
  ASSERT_EQ(buffer.records().size(), 3u);
  EXPECT_EQ(buffer.records()[0].timestamp, 0);
  EXPECT_EQ(buffer.records()[2].timestamp, 2);
  EXPECT_EQ(buffer.dropped(), 7u);
}

TEST(RelayBufferTest, ChargesCpuCyclesPerRecord) {
  Cpu cpu;
  TraceRecorder buffer("relay", 16);
  buffer.AttachCpu(&cpu);  // default: the paper's 236 cycles
  buffer.Log(MakeRecord(0, TimerOp::kSet, 1));
  buffer.Log(MakeRecord(1, TimerOp::kCancel, 1));
  EXPECT_EQ(cpu.charged_cycles(), 2 * kPaperLogCostCycles);
}

TEST(RelayBufferTest, DroppedRecordsStillChargeCycles) {
  Cpu cpu;
  TraceRecorder buffer("relay", 1);
  buffer.AttachCpu(&cpu, 100);
  buffer.Log(MakeRecord(0, TimerOp::kSet, 1));
  buffer.Log(MakeRecord(1, TimerOp::kSet, 1));
  EXPECT_EQ(cpu.charged_cycles(), 200u);
}

TEST(RelayBufferTest, TakeRecordsResets) {
  TraceRecorder buffer("relay", 2);
  buffer.Log(MakeRecord(0, TimerOp::kSet, 1));
  buffer.Log(MakeRecord(1, TimerOp::kSet, 1));
  buffer.Log(MakeRecord(2, TimerOp::kSet, 1));
  EXPECT_EQ(buffer.dropped(), 1u);
  auto records = buffer.TakeRecords();
  EXPECT_EQ(records.size(), 2u);
  EXPECT_TRUE(buffer.records().empty());
  EXPECT_EQ(buffer.dropped(), 0u);
  buffer.Log(MakeRecord(3, TimerOp::kSet, 1));
  EXPECT_EQ(buffer.records().size(), 1u);
}

// Vista snapshots carry no drop series: an ETW session cannot drop.
TEST(TraceRecorderTest, OnlyABoundedRecorderRegistersADropCounter) {
  TraceRecorder bounded("test_bounded", 4);
  TraceRecorder unbounded("test_unbounded", TraceRecorder::kUnbounded);
  bool bounded_series = false;
  bool unbounded_series = false;
  for (const obs::SnapshotEntry& e : obs::Registry::Global().TakeSnapshot().entries) {
    if (e.name == "trace_records_dropped") {
      bounded_series |= e.labels == obs::Labels{{"sink", "test_bounded"}};
      unbounded_series |= e.labels == obs::Labels{{"sink", "test_unbounded"}};
    }
  }
  EXPECT_TRUE(bounded_series);
  EXPECT_FALSE(unbounded_series);
}

// --- live tap ---
//
// A recorder tees each record it keeps into a live tap (the channel a
// drainer polls while a workload runs), so the live view is the recorded
// trace: records dropped on overflow never reach the tap.

std::vector<TraceRecord> HarvestTap(RelayChannel* tap) {
  tap->FlushOpen();
  std::vector<TraceRecord> out;
  tap->Harvest(&out);
  return out;
}

TEST(LiveTapTest, BoundedTapSeesOnlyAcceptedRecords) {
  Cpu cpu;
  RelayChannel tap("tap");
  TraceRecorder buffer("relay", 3);
  buffer.AttachCpu(&cpu);
  buffer.SetLiveTap(&tap);
  for (int i = 0; i < 10; ++i) {
    buffer.Log(MakeRecord(i, TimerOp::kSet, 1));
  }
  const std::vector<TraceRecord> teed = HarvestTap(&tap);
  ASSERT_EQ(teed.size(), 3u);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(teed[static_cast<size_t>(i)].timestamp, i);
  }
  EXPECT_EQ(buffer.dropped(), 7u);
  EXPECT_EQ(cpu.charged_cycles(), 10 * kPaperLogCostCycles);
}

TEST(LiveTapTest, UnboundedTapSeesEveryRecordPastTheRing) {
  constexpr int kRecords = 40000;  // past a default relay channel's 32Ki ring
  RelayChannel tap("tap", RelayChannelConfig::ForCapacity(kRecords));
  TraceRecorder session("etw", TraceRecorder::kUnbounded);
  session.SetLiveTap(&tap);
  for (int i = 0; i < kRecords; ++i) {
    session.Log(MakeRecord(i, TimerOp::kSet, 1));
  }
  const std::vector<TraceRecord> teed = HarvestTap(&tap);
  ASSERT_EQ(teed.size(), static_cast<size_t>(kRecords));
  ASSERT_EQ(session.records().size(), static_cast<size_t>(kRecords));
  for (int i = 0; i < kRecords; ++i) {
    ASSERT_EQ(teed[static_cast<size_t>(i)].timestamp, i);
    ASSERT_EQ(session.records()[static_cast<size_t>(i)].timestamp, i);
  }
}

TEST(LiveTapTest, TakeRecordsLeavesTheTapAlone) {
  RelayChannel tap("tap");
  TraceRecorder buffer("relay", 2);
  buffer.SetLiveTap(&tap);
  for (int i = 0; i < 3; ++i) {
    buffer.Log(MakeRecord(i, TimerOp::kSet, 1));
  }
  EXPECT_EQ(buffer.TakeRecords().size(), 2u);
  EXPECT_EQ(buffer.logged(), 0u);
  EXPECT_EQ(buffer.dropped(), 0u);
  buffer.Log(MakeRecord(3, TimerOp::kSet, 1));
  // The tap keeps what it was given before the take and keeps receiving.
  const std::vector<TraceRecord> teed = HarvestTap(&tap);
  ASSERT_EQ(teed.size(), 3u);
  EXPECT_EQ(teed[0].timestamp, 0);
  EXPECT_EQ(teed[1].timestamp, 1);
  EXPECT_EQ(teed[2].timestamp, 3);
}

TEST(NullSinkTest, CountsButDiscards) {
  NullSink sink;
  sink.Log(MakeRecord(0, TimerOp::kSet, 1));
  sink.Log(MakeRecord(1, TimerOp::kSet, 1));
  EXPECT_EQ(sink.discarded(), 2u);
}

// Pins the drop/charge contract of the sinks:
//   * NullSink counts every record as discarded (by design, not overflow)
//     and never charges the CPU — it is the unmodified-kernel baseline.
//   * A bounded recorder charges per Log attempt (relayfs pays the
//     instrumentation cost before discovering the buffer is full) and
//     drops only on overflow, keeping old records.
//   * An unbounded recorder charges per Log and never drops.
TEST(SinkAccountingTest, NullSinkNeverChargesCpu) {
  Cpu cpu;
  NullSink sink;  // no AttachCpu API: the baseline cannot charge by design
  sink.Log(MakeRecord(0, TimerOp::kSet, 1));
  EXPECT_EQ(sink.discarded(), 1u);
  EXPECT_EQ(cpu.charged_cycles(), 0u);
}

TEST(SinkAccountingTest, RelayBufferChargesEvenForDroppedRecords) {
  Cpu cpu;
  TraceRecorder buffer("relay", 2);
  buffer.AttachCpu(&cpu, 100);
  for (int i = 0; i < 5; ++i) {
    buffer.Log(MakeRecord(i, TimerOp::kSet, 1));
  }
  EXPECT_EQ(buffer.logged(), 2u);
  EXPECT_EQ(buffer.dropped(), 3u);
  EXPECT_EQ(cpu.charged_cycles(), 500u);  // all five attempts paid the cost
  // Old records survive; the dropped ones were the new arrivals.
  EXPECT_EQ(buffer.records()[0].timestamp, 0);
  EXPECT_EQ(buffer.records()[1].timestamp, 1);
}

TEST(SinkAccountingTest, EtwSessionChargesAndNeverDrops) {
  Cpu cpu;
  TraceRecorder session("etw", TraceRecorder::kUnbounded);
  session.AttachCpu(&cpu, kPaperLogCostCycles);
  for (int i = 0; i < 10; ++i) {
    session.Log(MakeRecord(i, TimerOp::kSet, 1));
  }
  EXPECT_EQ(session.records().size(), 10u);
  EXPECT_EQ(cpu.charged_cycles(), 10 * kPaperLogCostCycles);
}

TEST(EtwSessionTest, Unbounded) {
  TraceRecorder session("etw", TraceRecorder::kUnbounded);
  for (int i = 0; i < 1000; ++i) {
    session.Log(MakeRecord(i, TimerOp::kSet, 1));
  }
  EXPECT_EQ(session.records().size(), 1000u);
}

TEST(EtwSessionTest, GrowthBeyondInternalRingLosesNothing) {
  // Growth far past any fixed ring (a default relay channel holds 32Ki
  // records) must stay lossless and ordered.
  TraceRecorder session("etw", TraceRecorder::kUnbounded);
  constexpr int kRecords = 100000;
  for (int i = 0; i < kRecords; ++i) {
    session.Log(MakeRecord(i, TimerOp::kSet, 1));
  }
  ASSERT_EQ(session.records().size(), static_cast<size_t>(kRecords));
  for (int i = 0; i < kRecords; ++i) {
    ASSERT_EQ(session.records()[static_cast<size_t>(i)].timestamp, i);
  }
  // TakeRecords hands everything over and resets for the next run.
  auto taken = session.TakeRecords();
  EXPECT_EQ(taken.size(), static_cast<size_t>(kRecords));
  EXPECT_TRUE(session.records().empty());
  session.Log(MakeRecord(kRecords, TimerOp::kSet, 1));
  EXPECT_EQ(session.records().size(), 1u);
}

TEST(EtwSessionTest, AttachCpuChargesEveryRecordAcrossGrowth) {
  // Cycle charging must cover every Log, including the ones that grow the
  // record vector on their way in.
  Cpu cpu;
  TraceRecorder session("etw", TraceRecorder::kUnbounded);
  session.AttachCpu(&cpu, 10);
  constexpr int kRecords = 50000;  // > a default relay channel's 32Ki ring
  for (int i = 0; i < kRecords; ++i) {
    session.Log(MakeRecord(i, TimerOp::kSet, 1));
  }
  EXPECT_EQ(session.records().size(), static_cast<size_t>(kRecords));
  EXPECT_EQ(cpu.charged_cycles(), static_cast<uint64_t>(kRecords) * 10);
}

// --- codec ---

class CodecRoundTripTest : public ::testing::TestWithParam<TimerOp> {};

TEST_P(CodecRoundTripTest, RoundTripsAllFields) {
  TraceRecord r;
  r.timestamp = 123456789012345;
  r.timer = 0xdeadbeefcafeULL;
  r.timeout = 204 * kMillisecond;
  r.expiry = 123456789012345 + 204 * kMillisecond;
  r.callsite = 17;
  r.stack = 99;
  r.pid = 42;
  r.tid = 77;
  r.op = GetParam();
  r.flags = kFlagUser | kFlagDeferrable;

  std::vector<uint8_t> bytes;
  EncodeRecord(r, &bytes);
  ASSERT_EQ(bytes.size(), kEncodedRecordSize);
  auto decoded = DecodeRecord(bytes.data());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->timestamp, r.timestamp);
  EXPECT_EQ(decoded->timer, r.timer);
  EXPECT_EQ(decoded->timeout, r.timeout);
  // Expiry is quantised to 1.024 us in the binary encoding.
  EXPECT_NEAR(static_cast<double>(decoded->expiry), static_cast<double>(r.expiry), 1024.0);
  EXPECT_EQ(decoded->callsite, r.callsite);
  EXPECT_EQ(decoded->stack, r.stack);
  EXPECT_EQ(decoded->pid, r.pid);
  EXPECT_EQ(decoded->tid, r.tid);
  EXPECT_EQ(decoded->op, r.op);
  EXPECT_EQ(decoded->flags, r.flags);
}

INSTANTIATE_TEST_SUITE_P(AllOps, CodecRoundTripTest,
                         ::testing::Values(TimerOp::kInit, TimerOp::kSet, TimerOp::kCancel,
                                           TimerOp::kExpire, TimerOp::kBlock,
                                           TimerOp::kUnblock));

// The 48 row bytes of one extreme record, so the field order and widths of
// the v1/v2 row store cannot drift: distinct bytes in every wide field,
// negative pid and tid, an expiry whose quantised value needs the high
// byte, and every flag bit set.
TEST(CodecTest, RowBytesArePinned) {
  TraceRecord r;
  r.timestamp = 0x0102030405060708;
  r.timer = 0x1112131415161718;
  r.timeout = 0x2122232425262728;
  r.expiry = (SimTime{0xABCDEF0123} << 10) | 0x3FF;  // the low 10 bits quantise away
  r.callsite = 0x31323334;
  r.stack = 0x41424344;
  r.pid = -2;
  r.tid = -300;
  r.op = TimerOp::kUnblock;
  r.flags = 0xFFFF;

  std::vector<uint8_t> bytes;
  EncodeRecord(r, &bytes);
  const std::vector<uint8_t> expected = {
      0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01,  // timestamp
      0x18, 0x17, 0x16, 0x15, 0x14, 0x13, 0x12, 0x11,  // timer
      0x28, 0x27, 0x26, 0x25, 0x24, 0x23, 0x22, 0x21,  // timeout
      0x23, 0x01, 0xEF, 0xCD,                          // expiry / 1024, low 32 bits
      0x34, 0x33, 0x32, 0x31,                          // callsite
      0x44, 0x43, 0x42, 0x41,                          // stack
      0xFE, 0xFF,                                      // pid -2
      0xD4, 0xFE,                                      // tid -300
      0x05,                                            // op kUnblock
      0xAB,                                            // expiry / 1024, bits 32..39
      0xFF, 0xFF,                                      // flags
      0x00, 0x00, 0x00, 0x00,                          // reserved
  };
  EXPECT_EQ(bytes, expected);

  const auto decoded = DecodeRecord(bytes.data());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->pid, -2);
  EXPECT_EQ(decoded->tid, -300);
  EXPECT_EQ(decoded->expiry, SimTime{0xABCDEF0123} << 10);
  EXPECT_EQ(decoded->flags, 0xFFFF);

  // EncodeRecords stores the same row for each record it is given.
  std::vector<uint8_t> rows = {0x5A};
  const TraceRecord pair[] = {r, r};
  EncodeRecords(pair, &rows);
  ASSERT_EQ(rows.size(), 1 + 2 * kEncodedRecordSize);
  EXPECT_EQ(rows[0], 0x5A);
  EXPECT_TRUE(std::equal(expected.begin(), expected.end(), rows.begin() + 1));
  EXPECT_TRUE(std::equal(expected.begin(), expected.end(), rows.begin() + 49));
}

TEST(CodecTest, FormatRecordMentionsOpAndCallsite) {
  CallsiteRegistry registry;
  TraceRecord r = MakeRecord(kSecond, TimerOp::kCancel, 3);
  r.callsite = registry.Intern("ide/command_timeout");
  const std::string line = FormatRecord(r, registry);
  EXPECT_NE(line.find("cancel"), std::string::npos);
  EXPECT_NE(line.find("ide/command_timeout"), std::string::npos);
}

TEST(RecordTest, OpNames) {
  EXPECT_STREQ(TimerOpName(TimerOp::kInit), "init");
  EXPECT_STREQ(TimerOpName(TimerOp::kSet), "set");
  EXPECT_STREQ(TimerOpName(TimerOp::kCancel), "cancel");
  EXPECT_STREQ(TimerOpName(TimerOp::kExpire), "expire");
  EXPECT_STREQ(TimerOpName(TimerOp::kBlock), "block");
  EXPECT_STREQ(TimerOpName(TimerOp::kUnblock), "unblock");
}

}  // namespace
}  // namespace tempo

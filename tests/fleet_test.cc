// Unit tests for the fleet layer: wire round-trips, the FleetReadError
// taxonomy (every class of frame damage surfaces as its typed error, and a
// damaged stream stays poisoned), incremental decoding under arbitrary
// fragmentation, aggregator loss accounting (gaps, duplicates, staleness,
// dirty closes — a host never silently disappears), and the end-to-end
// paths: simulated hosts over the in-process pipe and over real TCP, and
// a host whose pattern fold resets publishing what its tracker holds.

#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/fleet/aggregator.h"
#include "src/fleet/host_sim.h"
#include "src/fleet/server.h"
#include "src/fleet/summary.h"
#include "src/fleet/wire.h"
#include "src/obs/metrics.h"
#include "src/sim/time.h"
#include "src/trace/transport.h"

namespace tempo {
namespace fleet {
namespace {

// A summary exercising every field group: both series lists, burst state,
// patterns, channels, metrics, and non-trivial label strings.
HostSummary RichSummary(const std::string& host = "desktop-7",
                        uint64_t sequence = 3) {
  HostSummary s;
  s.host = host;
  s.sequence = sequence;
  s.now = 4 * kSecond + 250 * kMillisecond;
  s.window = kSecond;
  s.records = 123456;
  SeriesSummary outlook;
  outlook.label = "outlook.exe";
  outlook.sets = 43057;
  outlook.expires = 43000;
  outlook.cancels = 12;
  outlook.mean_rate = 70.5;
  outlook.last_rate = 6993.0;
  outlook.peak_rate = 6993.0;
  outlook.burst_active = true;
  outlook.bursts = 1;
  outlook.burst_peak_rate = 6993.0;
  SeriesSummary kernel;
  kernel.label = "Kernel";
  kernel.sets = 24000;
  kernel.expires = 23936;
  kernel.mean_rate = 1000.0;
  kernel.last_rate = 1000.0;
  kernel.peak_rate = 1000.0;
  s.processes = {outlook, kernel};
  SeriesSummary origin = kernel;
  origin.label = "kernel";
  s.origins = {origin};
  s.patterns = {{"periodic", 64}, {"watchdog", 8}};
  s.classifier_tracked = 72;
  s.classifier_evictions = 5;
  s.windows_evicted = 0;
  s.channels = {{host + "/kernel", 48000, 0}, {host + "/outlook", 86114, 7}};
  s.metrics = {{"relay_accepted", 134114}, {"drainer_emitted", 134107}};
  s.slack.slack.Record(0);
  s.slack.slack.Record(1500);       // a ~1.5 us firing
  s.slack.slack.Record(3999744);    // a ~4 ms rounded jiffy
  s.slack.canceled = 12;
  s.slack.rearmed = 3;
  s.slack.early = 1;
  s.slack.open = 64;
  return s;
}

FleetOptions Quiet() {
  FleetOptions options;
  options.stats_label.clear();  // unit tests stay out of the global registry
  return options;
}

// --- wire round trip ---

TEST(FleetWire, EncodeDecodeRoundTripPreservesEveryField) {
  const HostSummary original = RichSummary();
  const std::vector<uint8_t> frame = EncodeSummaryFrame(original);
  ASSERT_GE(frame.size(), kFrameHeaderBytes + kFrameTrailerBytes);
  HostSummary decoded;
  FleetReadError error;
  ASSERT_EQ(DecodeSummaryFrame(frame.data(), frame.size(), &decoded, &error),
            FrameDecoder::Status::kFrame);
  EXPECT_EQ(decoded, original);
  EXPECT_EQ(decoded.relay_dropped(), 7u);
}

TEST(FleetWire, DecoderYieldsConsecutiveFramesFromOneBuffer) {
  std::vector<uint8_t> wire;
  for (uint64_t seq = 1; seq <= 3; ++seq) {
    const std::vector<uint8_t> frame = EncodeSummaryFrame(RichSummary("h", seq));
    wire.insert(wire.end(), frame.begin(), frame.end());
  }
  FrameDecoder decoder;
  decoder.Feed(wire.data(), wire.size());
  HostSummary out;
  FleetReadError error;
  for (uint64_t seq = 1; seq <= 3; ++seq) {
    ASSERT_EQ(decoder.Next(&out, &error), FrameDecoder::Status::kFrame);
    EXPECT_EQ(out.sequence, seq);
  }
  EXPECT_EQ(decoder.Next(&out, &error), FrameDecoder::Status::kNeedMore);
  EXPECT_EQ(decoder.frames_decoded(), 3u);
  EXPECT_EQ(decoder.buffered(), 0u);
}

TEST(FleetWire, SingleByteFragmentsDecodeIdentically) {
  const HostSummary original = RichSummary();
  const std::vector<uint8_t> frame = EncodeSummaryFrame(original);
  FrameDecoder decoder;
  HostSummary out;
  FleetReadError error;
  for (size_t i = 0; i < frame.size(); ++i) {
    // Until the last byte arrives the decoder must keep asking for more.
    EXPECT_EQ(decoder.Next(&out, &error), FrameDecoder::Status::kNeedMore);
    decoder.Feed(&frame[i], 1);
  }
  ASSERT_EQ(decoder.Next(&out, &error), FrameDecoder::Status::kFrame);
  EXPECT_EQ(out, original);
}

TEST(FleetWire, OversizedStringIsClampedToAConsistentFrame) {
  // A name beyond the u16 length prefix must be clamped at encode time,
  // not emitted as a self-contradictory frame the decoder calls corrupt.
  const HostSummary original = RichSummary(std::string(70000, 'h'));
  const std::vector<uint8_t> frame = EncodeSummaryFrame(original);
  HostSummary decoded;
  FleetReadError error;
  ASSERT_EQ(DecodeSummaryFrame(frame.data(), frame.size(), &decoded, &error),
            FrameDecoder::Status::kFrame);
  EXPECT_EQ(decoded.host.size(), 0xffffu);
  EXPECT_EQ(decoded.host, original.host.substr(0, 0xffff));
  EXPECT_EQ(decoded.sequence, original.sequence);
}

TEST(FleetWire, PathologicalSummaryIsTrimmedToTheFrameBound) {
  // A summary whose encoding would exceed kMaxSummaryFrameBytes must be
  // trimmed at the source: the host's frame always decodes, with the
  // header counters intact and only the series tail dropped.
  HostSummary huge = RichSummary();
  SeriesSummary series = huge.processes[0];
  series.label = std::string(1000, 'p');
  huge.processes.assign(6000, series);  // ~6 MiB of series alone
  const std::vector<uint8_t> frame = EncodeSummaryFrame(huge);
  ASSERT_LE(frame.size(),
            kFrameHeaderBytes + kMaxSummaryFrameBytes + kFrameTrailerBytes);
  HostSummary decoded;
  FleetReadError error;
  ASSERT_EQ(DecodeSummaryFrame(frame.data(), frame.size(), &decoded, &error),
            FrameDecoder::Status::kFrame)
      << FleetReadErrorName(error);
  EXPECT_EQ(decoded.host, huge.host);
  EXPECT_EQ(decoded.records, huge.records);
  EXPECT_FALSE(decoded.processes.empty());
  EXPECT_LT(decoded.processes.size(), huge.processes.size());
}

// --- the error taxonomy ---

TEST(FleetWireTaxonomy, TruncatedFrameAtCloseIsTyped) {
  const std::vector<uint8_t> frame = EncodeSummaryFrame(RichSummary());
  FrameDecoder decoder;
  decoder.Feed(frame.data(), frame.size() - 1);  // everything but one byte
  HostSummary out;
  FleetReadError error;
  // Mid-stream this is just an incomplete frame...
  EXPECT_EQ(decoder.Next(&out, &error), FrameDecoder::Status::kNeedMore);
  // ...but once the stream ends, the partial frame is a typed loss.
  decoder.Close();
  ASSERT_EQ(decoder.Next(&out, &error), FrameDecoder::Status::kError);
  EXPECT_EQ(error, FleetReadError::kTruncated);
  EXPECT_STREQ(FleetReadErrorName(error), "truncated frame");
}

TEST(FleetWireTaxonomy, BadMagicIsTypedBeforeTheFullHeaderArrives) {
  FrameDecoder decoder;
  const uint8_t junk[4] = {'H', 'T', 'T', 'P'};  // wrong from byte 0
  decoder.Feed(junk, sizeof(junk));
  HostSummary out;
  FleetReadError error;
  ASSERT_EQ(decoder.Next(&out, &error), FrameDecoder::Status::kError);
  EXPECT_EQ(error, FleetReadError::kMagic);
}

TEST(FleetWireTaxonomy, UnknownVersionIsTyped) {
  std::vector<uint8_t> frame = EncodeSummaryFrame(RichSummary());
  frame[8] = 0xFF;  // version field follows the 8-byte magic
  HostSummary out;
  FleetReadError error;
  ASSERT_EQ(DecodeSummaryFrame(frame.data(), frame.size(), &out, &error),
            FrameDecoder::Status::kError);
  EXPECT_EQ(error, FleetReadError::kVersion);
}

TEST(FleetWireTaxonomy, OversizedLengthPrefixIsTyped) {
  std::vector<uint8_t> frame = EncodeSummaryFrame(RichSummary());
  // Length prefix sits after magic + version; 0xFFFFFFFF breaks the bound.
  frame[12] = frame[13] = frame[14] = frame[15] = 0xFF;
  HostSummary out;
  FleetReadError error;
  ASSERT_EQ(DecodeSummaryFrame(frame.data(), frame.size(), &out, &error),
            FrameDecoder::Status::kError);
  EXPECT_EQ(error, FleetReadError::kOversized);
}

TEST(FleetWireTaxonomy, ChecksumMismatchIsTyped) {
  std::vector<uint8_t> frame = EncodeSummaryFrame(RichSummary());
  frame[kFrameHeaderBytes] ^= 0x01;  // first payload byte
  HostSummary out;
  FleetReadError error;
  ASSERT_EQ(DecodeSummaryFrame(frame.data(), frame.size(), &out, &error),
            FrameDecoder::Status::kError);
  EXPECT_EQ(error, FleetReadError::kChecksum);
}

TEST(FleetWireTaxonomy, ChecksumValidButSelfContradictoryPayloadIsCorrupt) {
  // Re-frame a valid payload with one trailing garbage byte and a checksum
  // that matches it: framing and checksum pass, the content does not.
  const std::vector<uint8_t> good = EncodeSummaryFrame(RichSummary());
  std::vector<uint8_t> payload(good.begin() + kFrameHeaderBytes,
                               good.end() - kFrameTrailerBytes);
  payload.push_back(0xAB);
  std::vector<uint8_t> frame(good.begin(), good.begin() + kFrameHeaderBytes);
  const uint32_t size = static_cast<uint32_t>(payload.size());
  frame[12] = static_cast<uint8_t>(size);
  frame[13] = static_cast<uint8_t>(size >> 8);
  frame[14] = static_cast<uint8_t>(size >> 16);
  frame[15] = static_cast<uint8_t>(size >> 24);
  frame.insert(frame.end(), payload.begin(), payload.end());
  const uint64_t checksum = FleetChecksum(payload.data(), payload.size());
  for (int i = 0; i < 8; ++i) {
    frame.push_back(static_cast<uint8_t>(checksum >> (8 * i)));
  }
  HostSummary out;
  FleetReadError error;
  ASSERT_EQ(DecodeSummaryFrame(frame.data(), frame.size(), &out, &error),
            FrameDecoder::Status::kError);
  EXPECT_EQ(error, FleetReadError::kCorrupt);
}

TEST(FleetWireTaxonomy, DigestBucketsContradictingTheCountAreCorrupt) {
  // The digest's bucket list must sum to its advertised span count; a
  // payload where it does not is framing damage even under a valid
  // checksum. The digest is the payload's final section, so the last
  // 8 bytes before the trailer are the last bucket's count — perturb it.
  HostSummary summary = RichSummary();
  ASSERT_GT(summary.slack.slack.count, 0u);
  std::vector<uint8_t> good = EncodeSummaryFrame(summary);
  std::vector<uint8_t> payload(good.begin() + kFrameHeaderBytes,
                               good.end() - kFrameTrailerBytes);
  payload[payload.size() - 8] ^= 0x01;
  std::vector<uint8_t> frame(good.begin(), good.begin() + kFrameHeaderBytes);
  frame.insert(frame.end(), payload.begin(), payload.end());
  const uint64_t checksum = FleetChecksum(payload.data(), payload.size());
  for (int i = 0; i < 8; ++i) {
    frame.push_back(static_cast<uint8_t>(checksum >> (8 * i)));
  }
  HostSummary out;
  FleetReadError error;
  ASSERT_EQ(DecodeSummaryFrame(frame.data(), frame.size(), &out, &error),
            FrameDecoder::Status::kError);
  EXPECT_EQ(error, FleetReadError::kCorrupt);
}

TEST(FleetWire, EmptySlackDigestRoundTrips) {
  HostSummary summary = RichSummary();
  summary.slack = SlackDigest{};
  const std::vector<uint8_t> frame = EncodeSummaryFrame(summary);
  HostSummary decoded;
  FleetReadError error;
  ASSERT_EQ(DecodeSummaryFrame(frame.data(), frame.size(), &decoded, &error),
            FrameDecoder::Status::kFrame);
  EXPECT_EQ(decoded, summary);
  EXPECT_TRUE(decoded.slack.slack.empty());
}

TEST(FleetWireTaxonomy, PoisonedStreamStaysPoisoned) {
  std::vector<uint8_t> bad = EncodeSummaryFrame(RichSummary());
  bad[kFrameHeaderBytes] ^= 0x01;
  FrameDecoder decoder;
  decoder.Feed(bad.data(), bad.size());
  HostSummary out;
  FleetReadError error;
  ASSERT_EQ(decoder.Next(&out, &error), FrameDecoder::Status::kError);
  EXPECT_EQ(error, FleetReadError::kChecksum);
  // A pristine frame after the damage must NOT decode: framing after
  // corruption cannot be trusted.
  const std::vector<uint8_t> good = EncodeSummaryFrame(RichSummary());
  decoder.Feed(good.data(), good.size());
  ASSERT_EQ(decoder.Next(&out, &error), FrameDecoder::Status::kError);
  EXPECT_EQ(error, FleetReadError::kChecksum);
  EXPECT_TRUE(decoder.poisoned());
  EXPECT_EQ(decoder.frames_decoded(), 0u);
}

// --- aggregator loss accounting ---

TEST(FleetAggregatorTest, SequenceGapsAndDuplicatesAreCharged) {
  FleetAggregator agg(Quiet());
  agg.Ingest(RichSummary("h", 1));
  agg.Ingest(RichSummary("h", 4));  // 2 and 3 never arrived
  agg.Ingest(RichSummary("h", 4));  // replay
  const FleetView view = agg.TakeView();
  ASSERT_EQ(view.hosts.size(), 1u);
  EXPECT_EQ(view.hosts[0].sequence_gaps, 2u);
  EXPECT_EQ(view.hosts[0].duplicates, 1u);
  EXPECT_FALSE(view.hosts[0].clean);
  EXPECT_EQ(view.sequence_gaps_total, 2u);
  EXPECT_EQ(view.duplicates_total, 1u);
  EXPECT_FALSE(view.clean());
}

TEST(FleetAggregatorTest, QuietHostAgesIntoStaleButNeverDisappears) {
  FleetAggregator agg(Quiet());  // stale_after = 3 s
  HostSummary early = RichSummary("laggard", 1);
  early.now = kSecond;
  early.channels[1].dropped = 0;  // lossless host: staleness alone here
  agg.Ingest(early);
  HostSummary late = RichSummary("fresh", 1);
  late.now = 10 * kSecond;
  late.channels[1].dropped = 0;
  agg.Ingest(late);
  const FleetView view = agg.TakeView();
  EXPECT_EQ(view.fleet_now, 10 * kSecond);
  ASSERT_EQ(view.hosts.size(), 2u);  // the laggard still has its row
  EXPECT_EQ(view.hosts_total, 2u);
  EXPECT_EQ(view.hosts_live, 1u);
  EXPECT_EQ(view.hosts_stale, 1u);
  // std::map ordering: "fresh" before "laggard".
  EXPECT_FALSE(view.hosts[0].stale);
  EXPECT_TRUE(view.hosts[1].stale);
  EXPECT_EQ(view.hosts[1].age, 9 * kSecond);
  // Staleness is lag, not loss: nothing was dropped on the floor.
  EXPECT_TRUE(view.clean());
}

TEST(FleetAggregatorTest, DecodeErrorPoisonsTheHostsOnThatSource) {
  FleetAggregator agg(Quiet());
  agg.Ingest(RichSummary("a", 1), "tcp/0");
  agg.Ingest(RichSummary("b", 1), "tcp/1");
  agg.NoteDecodeError("tcp/0", FleetReadError::kChecksum);
  const FleetView view = agg.TakeView();
  ASSERT_EQ(view.hosts.size(), 2u);
  EXPECT_FALSE(view.hosts[0].clean);  // "a" rode the damaged source
  EXPECT_TRUE(view.hosts[1].clean);
  EXPECT_EQ(view.decode_errors_total, 1u);
  ASSERT_EQ(view.sources.size(), 1u);  // only the troubled source gets a row
  EXPECT_EQ(view.sources[0].source, "tcp/0");
  EXPECT_STREQ(view.sources[0].last_error.c_str(), "checksum mismatch");
  EXPECT_FALSE(view.clean());
}

TEST(FleetAggregatorTest, DirtyCloseIsCountedCleanCloseIsNot) {
  FleetAggregator agg(Quiet());
  agg.Ingest(RichSummary("a", 1), "tcp/0");
  agg.Ingest(RichSummary("b", 1), "tcp/1");
  agg.NoteClose("tcp/0", /*clean=*/true);
  agg.NoteClose("tcp/1", /*clean=*/false);
  const FleetView view = agg.TakeView();
  EXPECT_EQ(view.hosts_closed, 2u);
  EXPECT_TRUE(view.hosts[0].clean);
  EXPECT_FALSE(view.hosts[1].clean);
  EXPECT_EQ(view.dirty_closes_total, 1u);
  EXPECT_FALSE(view.clean());
}

TEST(FleetAggregatorTest, SeriesMergeAcrossHostsAndBurstCensus) {
  FleetAggregator agg(Quiet());
  agg.Ingest(RichSummary("a", 1));
  HostSummary quiet = RichSummary("b", 1);
  quiet.processes[0].burst_active = false;
  quiet.processes[0].bursts = 0;
  quiet.processes[0].burst_peak_rate = 0.0;
  agg.Ingest(quiet);
  const FleetView view = agg.TakeView();
  ASSERT_FALSE(view.processes.empty());
  // Top-by-sets: outlook.exe, reported by both hosts, summed.
  EXPECT_EQ(view.processes[0].label, "outlook.exe");
  EXPECT_EQ(view.processes[0].hosts, 2u);
  EXPECT_EQ(view.processes[0].sets, 2u * 43057u);
  EXPECT_EQ(view.processes[0].hosts_bursting, 1u);
  EXPECT_EQ(agg.HostsWithBurst("outlook.exe", 5000.0), 1u);
  EXPECT_EQ(agg.HostsWithBurst("outlook.exe", 7500.0), 0u);
  EXPECT_EQ(agg.HostsWithBurst("Kernel", 1.0), 0u);
}

TEST(FleetAggregatorTest, SlackDigestsMergeExactlyAcrossHosts) {
  FleetAggregator agg(Quiet());
  HostSummary a = RichSummary("a", 1);
  HostSummary b = RichSummary("b", 1);
  b.slack.slack.Record(123456789);  // one ~123 ms straggler only host b saw
  HostSummary quiet = RichSummary("c", 1);
  quiet.slack = SlackDigest{};  // a host with no spans yet
  agg.Ingest(a);
  agg.Ingest(b);
  agg.Ingest(quiet);

  const FleetView view = agg.TakeView();
  EXPECT_EQ(view.hosts_reporting_slack, 2u);
  EXPECT_EQ(view.slack.slack.count, a.slack.slack.count + b.slack.slack.count);
  EXPECT_EQ(view.slack.slack.sum, a.slack.slack.sum + b.slack.slack.sum);
  EXPECT_EQ(view.slack.slack.max, 123456789u);
  EXPECT_EQ(view.slack.canceled, a.slack.canceled + b.slack.canceled);
  EXPECT_EQ(view.slack.early, a.slack.early + b.slack.early);
  EXPECT_EQ(view.slack.open, a.slack.open + b.slack.open);
  // The fold is the same SlackHist::Merge the offline passes use, so the
  // fleet histogram equals merging the host histograms directly.
  SlackHist direct = a.slack.slack;
  direct.Merge(b.slack.slack);
  EXPECT_EQ(view.slack.slack, direct);
}

TEST(FleetAggregatorTest, SyncObsPublishesFleetGauges) {
  obs::Registry::Global().Reset();
  FleetOptions options;
  options.stats_label = "fleet-test";
  FleetAggregator agg(options);
  agg.Ingest(RichSummary("a", 1));
  agg.Ingest(RichSummary("b", 1));
  agg.SyncObs();
  obs::Gauge* hosts = obs::Registry::Global().GetGauge(
      "fleet_hosts", {{"aggregator", "fleet-test"}});
  ASSERT_NE(hosts, nullptr);
  EXPECT_EQ(hosts->value(), 2);
}

// --- collector over the in-process pipe ---

TEST(FleetCollectorTest, PipeTransportDeliversFramesAndTypedLosses) {
  FleetAggregator agg(Quiet());
  FleetCollector collector(&agg);
  InProcessPipeHub hub(collector.Handler(), /*deliver_chunk=*/5);
  auto good = hub.Connect("pipe/good");
  auto bad = hub.Connect("pipe/bad");
  const std::vector<uint8_t> frame = EncodeSummaryFrame(RichSummary("g", 1));
  ASSERT_TRUE(good->Write(frame.data(), frame.size()));
  std::vector<uint8_t> damaged = EncodeSummaryFrame(RichSummary("b", 1));
  damaged[kFrameHeaderBytes] ^= 0x80;
  ASSERT_TRUE(bad->Write(damaged.data(), damaged.size()));
  good->Close();
  bad->Close();
  hub.Drain();
  const FleetView view = agg.TakeView();
  EXPECT_EQ(view.hosts_total, 1u);  // "b" never decoded
  EXPECT_EQ(view.frames_total, 1u);
  EXPECT_EQ(view.decode_errors_total, 1u);
  ASSERT_EQ(view.sources.size(), 1u);
  EXPECT_EQ(view.sources[0].source, "pipe/bad");
  EXPECT_FALSE(view.clean());
}

// --- simulated hosts end to end ---

TEST(FleetEndToEnd, SimulatedFleetOverPipeIsLosslessAndBursts) {
  FleetAggregator agg(Quiet());
  FleetCollector collector(&agg);
  InProcessPipeHub hub(collector.Handler());
  FleetRunOptions run;
  run.hosts = 3;
  run.duration = 6 * kSecond;
  run.seed = 11;
  run.connect = [&hub](const std::string& host) { return hub.Connect(host); };
  run.after_round = [&hub](SimTime) { hub.Drain(); };
  const FleetRunResult result = RunFleet(run);
  hub.Drain();
  EXPECT_EQ(result.hosts, 3u);
  const FleetView view = agg.TakeView();
  EXPECT_EQ(view.hosts_total, 3u);
  EXPECT_EQ(view.hosts_live, 3u);
  EXPECT_EQ(view.hosts_closed, 3u);
  EXPECT_EQ(view.frames_total, result.frames);
  EXPECT_EQ(view.records_total, result.records);
  EXPECT_TRUE(view.clean());
  // Every simulated desktop runs the outlook.exe watchdog storm.
  EXPECT_EQ(agg.HostsWithBurst("outlook.exe", 5000.0), 3u);
}

// A host's pattern fold starts over at its capacity; the summary it
// publishes carries the tracker's evictions, mix and group count as they
// stand.
TEST(FleetHostTest, PatternFoldPastCapacityReachesTheSummary) {
  HostSimOptions options;
  options.seed = 3;
  SimulatedHost host(options);
  host.AdvanceTo(4 * kSecond);  // ~4000 kernel arms, and the outlook storm
  const HostSummary summary = host.BuildSummary();
  const live::PatternTracker& patterns = host.patterns();
  EXPECT_GT(patterns.evictions(), 0u);
  EXPECT_EQ(summary.classifier_evictions, patterns.evictions());
  EXPECT_EQ(summary.classifier_tracked, patterns.tracked());
  EXPECT_FALSE(summary.patterns.empty());
  EXPECT_EQ(summary.patterns, patterns.Mix());
}

TEST(FleetEndToEnd, SimulatedFleetOverTcpIsLossless) {
  FleetOptions options = Quiet();
  FleetTcpServer server(options);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  const uint16_t port = server.port();
  FleetRunOptions run;
  run.hosts = 2;
  run.duration = 6 * kSecond;
  run.seed = 5;
  run.connect = [port](const std::string&) {
    return ConnectTcpStream("127.0.0.1", port, nullptr);
  };
  const FleetRunResult result = RunFleet(run);
  server.Stop();  // drains the sockets and reports the closes
  const FleetView view = server.View();
  EXPECT_EQ(view.hosts_total, 2u);
  EXPECT_EQ(view.frames_total, result.frames);
  EXPECT_EQ(view.records_total, result.records);
  EXPECT_TRUE(view.clean());
  EXPECT_EQ(server.HostsWithBurst("outlook.exe", 5000.0), 2u);
}

TEST(FleetEndToEnd, FailedConnectIsADeadHostNotACrash) {
  FleetAggregator agg(Quiet());
  FleetCollector collector(&agg);
  InProcessPipeHub hub(collector.Handler());
  FleetRunOptions run;
  run.hosts = 3;
  run.duration = 2 * kSecond;
  run.seed = 7;
  size_t connects = 0;
  run.connect = [&](const std::string& host) -> std::unique_ptr<ByteSink> {
    if (++connects == 2) {
      return nullptr;  // the second host cannot reach its collector
    }
    return hub.Connect(host);
  };
  run.after_round = [&hub](SimTime) { hub.Drain(); };
  const FleetRunResult result = RunFleet(run);
  hub.Drain();
  EXPECT_EQ(result.hosts, 3u);  // the dead host still simulated
  const FleetView view = agg.TakeView();
  EXPECT_EQ(view.hosts_total, 2u);  // ...but never published
  EXPECT_EQ(view.frames_total, result.frames);
  EXPECT_GT(view.frames_total, 0u);
}

TEST(FleetEndToEnd, StopWithIdleOpenConnectionIsACleanClose) {
  FleetOptions options = Quiet();
  FleetTcpServer server(options);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  auto sink = ConnectTcpStream("127.0.0.1", server.port(), &error);
  ASSERT_NE(sink, nullptr) << error;
  HostSummary summary = RichSummary("idle-host", 1);
  summary.channels[1].dropped = 0;  // a lossless host, merely idle
  const std::vector<uint8_t> frame = EncodeSummaryFrame(summary);
  ASSERT_TRUE(sink->Write(frame.data(), frame.size()));
  // Wait until the frame has been consumed, so the stop-time drain finds
  // an idle (EAGAIN), healthy socket rather than pending bytes.
  for (int i = 0; i < 500 && server.View().frames_total < 1; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  server.Stop();
  const FleetView view = server.View();
  ASSERT_EQ(view.frames_total, 1u);
  // An idle-but-open peer at shutdown is a server-initiated close, not
  // loss: it must not surface as a dirty close and flip the fleet lossy.
  EXPECT_EQ(view.dirty_closes_total, 0u);
  EXPECT_TRUE(view.clean());
  sink->Close();
}

}  // namespace
}  // namespace fleet
}  // namespace tempo

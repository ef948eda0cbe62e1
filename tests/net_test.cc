// Tests for the network substrate: fabric, RTO estimation, TCP, resolvers,
// RPC backoff, the layered file-access scenario and the HTTP pair.

#include <gtest/gtest.h>

#include "src/net/fileaccess.h"
#include "src/net/http.h"
#include "src/net/network.h"
#include "src/net/resolver.h"
#include "src/net/rpc.h"
#include "src/net/rto.h"
#include "src/net/tcp.h"
#include "src/sim/simulator.h"
#include "src/trace/buffer.h"

namespace tempo {
namespace {

// --- SimNetwork ---

TEST(SimNetworkTest, DeliversAfterLatency) {
  Simulator sim(1);
  SimNetwork net(&sim);
  const NodeId a = net.AddNode("a");
  const NodeId b = net.AddNode("b");
  LinkParams link;
  link.latency = kMillisecond;
  link.jitter_sigma = 0;
  link.per_byte = 0;
  net.SetLink(a, b, link);
  SimTime arrived = -1;
  EXPECT_TRUE(net.Send(a, b, 100, [&] { arrived = sim.Now(); }));
  sim.Run();
  EXPECT_EQ(arrived, kMillisecond);
}

TEST(SimNetworkTest, UnreachableDropsSilently) {
  Simulator sim(1);
  SimNetwork net(&sim);
  const NodeId a = net.AddNode("a");
  const NodeId b = net.AddNode("b");
  LinkParams link;
  link.unreachable = true;
  net.SetLink(a, b, link);
  bool delivered = false;
  EXPECT_FALSE(net.Send(a, b, 10, [&] { delivered = true; }));
  sim.Run();
  EXPECT_FALSE(delivered);
  EXPECT_EQ(net.packets_dropped(), 1u);
}

TEST(SimNetworkTest, LossDropsApproximatelyAtRate) {
  Simulator sim(2);
  SimNetwork net(&sim);
  const NodeId a = net.AddNode("a");
  const NodeId b = net.AddNode("b");
  LinkParams link;
  link.loss = 0.3;
  net.SetLink(a, b, link);
  int delivered = 0;
  for (int i = 0; i < 10000; ++i) {
    net.Send(a, b, 1, [&] { ++delivered; });
  }
  sim.Run();
  EXPECT_NEAR(delivered, 7000, 200);
}

TEST(SimNetworkTest, SerializationCostScalesWithBytes) {
  Simulator sim(1);
  SimNetwork net(&sim);
  const NodeId a = net.AddNode("a");
  const NodeId b = net.AddNode("b");
  LinkParams link;
  link.latency = 0;
  link.jitter_sigma = 0;
  link.per_byte = 8;  // 8 ns per byte = 1 Gb/s
  net.SetLink(a, b, link);
  SimTime arrived = -1;
  net.Send(a, b, 1000, [&] { arrived = sim.Now(); });
  sim.Run();
  EXPECT_EQ(arrived, 8000);
}

// --- JacobsonEstimator ---

TEST(JacobsonTest, InitialRtoBeforeSamples) {
  JacobsonEstimator est;
  EXPECT_EQ(est.Rto(), 3 * kSecond);
  EXPECT_FALSE(est.has_sample());
}

TEST(JacobsonTest, FirstSampleInitialisesSrttAndRttvar) {
  JacobsonEstimator est;
  est.Sample(100 * kMillisecond);
  EXPECT_EQ(est.srtt(), 100 * kMillisecond);
  EXPECT_EQ(est.rttvar(), 50 * kMillisecond);
  // RTO = SRTT + 4 * RTTVAR = 300 ms.
  EXPECT_EQ(est.Rto(), 300 * kMillisecond);
}

TEST(JacobsonTest, MinRtoClampsLanRtts) {
  // The paper's testbed: ~130 us RTTs, yet the retransmit value seen in the
  // trace is 204 ms — the Linux minimum. The estimator must clamp.
  JacobsonEstimator est;
  for (int i = 0; i < 100; ++i) {
    est.Sample(130 * kMicrosecond);
  }
  EXPECT_EQ(est.Rto(), 204 * kMillisecond);
}

TEST(JacobsonTest, BackoffDoublesUpToMax) {
  JacobsonEstimator est;
  est.Sample(100 * kMillisecond);
  const SimDuration base = est.Rto();
  est.Backoff();
  EXPECT_EQ(est.Rto(), 2 * base);
  est.Backoff();
  EXPECT_EQ(est.Rto(), 4 * base);
  for (int i = 0; i < 20; ++i) {
    est.Backoff();
  }
  EXPECT_EQ(est.Rto(), 120 * kSecond);  // max clamp
}

TEST(JacobsonTest, RtoSaturatesInsteadOfOverflowingAtExtremeParams) {
  // A large SRTT with a deep backoff shift used to compute base << shift
  // before clamping — overflowing signed SimDuration (UB). The shift must
  // saturate to max_rto instead.
  JacobsonEstimator::Params params;
  params.max_backoff_shift = 62;
  JacobsonEstimator est(params);
  est.Sample(40 * kHour);  // base = srtt + 4*rttvar = 120 h ≈ 2^48.6 ns
  for (int i = 0; i < 62; ++i) {
    est.Backoff();
  }
  EXPECT_EQ(est.backoff_shift(), 62);
  EXPECT_EQ(est.Rto(), params.max_rto);
}

TEST(JacobsonTest, RtoSaturatesWithUnboundedMaxRto) {
  // Even with max_rto at the type's ceiling the shift must not overflow.
  JacobsonEstimator::Params params;
  params.max_rto = INT64_MAX;
  params.max_backoff_shift = 63;
  JacobsonEstimator est(params);
  est.Sample(kHour);
  for (int i = 0; i < 63; ++i) {
    est.Backoff();
  }
  EXPECT_EQ(est.Rto(), INT64_MAX);
}

TEST(JacobsonTest, ModerateBackoffStillDoublesAfterSaturationFix) {
  JacobsonEstimator::Params params;
  params.max_backoff_shift = 16;
  JacobsonEstimator est(params);
  est.Sample(kSecond);
  const SimDuration base = est.Rto();
  est.Backoff();
  est.Backoff();
  EXPECT_EQ(est.Rto(), std::min<SimDuration>(4 * base, params.max_rto));
}

TEST(JacobsonTest, SampleResetsBackoff) {
  JacobsonEstimator est;
  est.Sample(100 * kMillisecond);
  est.Backoff();
  est.Backoff();
  est.Sample(100 * kMillisecond);
  EXPECT_EQ(est.backoff_shift(), 0);
}

TEST(JacobsonTest, VarianceTracksJitterUp) {
  JacobsonEstimator est;
  for (int i = 0; i < 50; ++i) {
    est.Sample(100 * kMillisecond);
  }
  const SimDuration stable = est.Rto();
  for (int i = 0; i < 10; ++i) {
    est.Sample((i % 2 == 0 ? 50 : 150) * kMillisecond);
  }
  EXPECT_GT(est.Rto(), stable);
}

// --- TCP ---

struct TcpFixture {
  Simulator sim{3};
  SimNetwork net{&sim};
  NodeId a;
  NodeId b;
  std::unique_ptr<TcpStack> stack_a;
  std::unique_ptr<TcpStack> stack_b;

  explicit TcpFixture(double loss = 0.0, LinuxKernel* kernel = nullptr) {
    a = net.AddNode("a");
    b = net.AddNode("b");
    LinkParams link;
    link.latency = 65 * kMicrosecond;
    link.jitter_sigma = 0.1;
    link.loss = loss;
    net.SetLinkBoth(a, b, link);
    stack_a = std::make_unique<TcpStack>(&sim, &net, a, kernel, kKernelPid);
    stack_b = std::make_unique<TcpStack>(&sim, &net, b, nullptr, kKernelPid);
  }
};

TEST(TcpTest, HandshakeEstablishesBothEnds) {
  TcpFixture f;
  TcpListener* listener = f.stack_b->Listen();
  TcpConnection* server_conn = nullptr;
  listener->on_accept = [&](TcpConnection* conn) { server_conn = conn; };
  TcpConnection* client_conn = nullptr;
  f.stack_a->Connect(listener, [&](TcpConnection* conn) { client_conn = conn; }, nullptr);
  f.sim.RunUntil(kSecond);
  ASSERT_NE(client_conn, nullptr);
  ASSERT_NE(server_conn, nullptr);
  EXPECT_TRUE(client_conn->established());
  EXPECT_TRUE(server_conn->established());
}

TEST(TcpTest, DataIsAcked) {
  TcpFixture f;
  TcpListener* listener = f.stack_b->Listen();
  size_t received = 0;
  listener->on_accept = [&](TcpConnection* conn) {
    conn->on_data = [&](size_t bytes) { received += bytes; };
  };
  bool acked = false;
  f.stack_a->Connect(listener, [&](TcpConnection* conn) {
    conn->Send(1000, [&] { acked = true; });
  }, nullptr);
  f.sim.RunUntil(kSecond);
  EXPECT_EQ(received, 1000u);
  EXPECT_TRUE(acked);
}

TEST(TcpTest, LossTriggersRetransmission) {
  TcpFixture f(/*loss=*/0.35);
  TcpListener* listener = f.stack_b->Listen();
  size_t deliveries = 0;
  listener->on_accept = [&](TcpConnection* conn) {
    conn->on_data = [&](size_t) { ++deliveries; };
  };
  int acked = 0;
  TcpConnection* client = nullptr;
  f.stack_a->Connect(listener, [&](TcpConnection* conn) {
    client = conn;
    conn->Send(1000, [&] { ++acked; });
  }, nullptr);
  f.sim.RunUntil(5 * kMinute);
  ASSERT_NE(client, nullptr);
  EXPECT_EQ(acked, 1);
  EXPECT_GE(deliveries, 1u);
}

TEST(TcpTest, ConnectToUnreachableFailsAfterSynRetries) {
  TcpFixture f;
  LinkParams dead;
  dead.unreachable = true;
  f.net.SetLink(f.a, f.b, dead);
  TcpListener* listener = f.stack_b->Listen();
  bool failed = false;
  SimTime failed_at = -1;
  f.stack_a->Connect(listener, [](TcpConnection*) { FAIL() << "must not connect"; },
                     [&] {
                       failed = true;
                       failed_at = f.sim.Now();
                     });
  f.sim.RunUntil(10 * kMinute);
  EXPECT_TRUE(failed);
  // 3 + 6 + 12 + 24 + 48 + (final 96 s wait) = 189 s, Linux's SYN schedule.
  EXPECT_GE(failed_at, 93 * kSecond);
  EXPECT_LE(failed_at, 200 * kSecond);
}

TEST(TcpTest, StopAndWaitQueuesBackToBackSends) {
  TcpFixture f;
  TcpListener* listener = f.stack_b->Listen();
  size_t received = 0;
  listener->on_accept = [&](TcpConnection* conn) {
    conn->on_data = [&](size_t bytes) { received += bytes; };
  };
  int acks = 0;
  f.stack_a->Connect(listener, [&](TcpConnection* conn) {
    conn->Send(100, [&] { ++acks; });
    conn->Send(200, [&] { ++acks; });
    conn->Send(300, [&] { ++acks; });
  }, nullptr);
  f.sim.RunUntil(kMinute);
  EXPECT_EQ(received, 600u);
  EXPECT_EQ(acks, 3);
}

TEST(TcpTest, CloseNotifiesPeer) {
  TcpFixture f;
  TcpListener* listener = f.stack_b->Listen();
  bool server_saw_close = false;
  listener->on_accept = [&](TcpConnection* conn) {
    conn->on_peer_close = [&] { server_saw_close = true; };
  };
  f.stack_a->Connect(listener, [&](TcpConnection* conn) { conn->Close(); }, nullptr);
  f.sim.RunUntil(kSecond);
  EXPECT_TRUE(server_saw_close);
}

TEST(TcpTest, KernelBoundStackEmitsKeepaliveAndRetransmitRecords) {
  Simulator sim(3);
  TraceRecorder buffer;
  LinuxKernel::Options kopts;
  kopts.max_set_jitter = 0;
  LinuxKernel kernel(&sim, &buffer, kopts);
  kernel.Boot();
  SimNetwork net(&sim);
  const NodeId a = net.AddNode("a");
  const NodeId b = net.AddNode("b");
  LinkParams link;
  link.latency = 65 * kMicrosecond;
  net.SetLinkBoth(a, b, link);
  TcpStack traced(&sim, &net, a, &kernel, kKernelPid);
  TcpStack remote(&sim, &net, b, nullptr, kKernelPid);
  TcpListener* listener = remote.Listen();
  listener->on_accept = [](TcpConnection*) {};
  TcpConnection* client = nullptr;
  traced.Connect(listener, [&](TcpConnection* conn) {
    client = conn;
    conn->Send(500, nullptr);
  }, nullptr);
  sim.RunUntil(10 * kSecond);
  ASSERT_NE(client, nullptr);
  client->Close();
  sim.RunUntil(11 * kSecond);

  bool saw_keepalive_set = false;
  bool saw_keepalive_cancel = false;
  bool saw_retransmit_set = false;
  for (const auto& r : buffer.records()) {
    const std::string& name = kernel.callsites().Name(r.callsite);
    if (name == "tcp/keepalive") {
      saw_keepalive_set = saw_keepalive_set || r.op == TimerOp::kSet;
      saw_keepalive_cancel = saw_keepalive_cancel || r.op == TimerOp::kCancel;
      if (r.op == TimerOp::kSet) {
        EXPECT_NEAR(ToSeconds(r.timeout), 7200.0, 1.0);
      }
    }
    if (name == "tcp/retransmit" && r.op == TimerOp::kSet) {
      saw_retransmit_set = true;
    }
  }
  EXPECT_TRUE(saw_keepalive_set);
  EXPECT_TRUE(saw_keepalive_cancel);
  EXPECT_TRUE(saw_retransmit_set);
}

TEST(TcpTest, TimerStructsAreSlabReused) {
  // 100 sequential connections must reuse a handful of timer identities
  // (Table 1: a 30000-connection trace had ~100 distinct timers).
  Simulator sim(3);
  TraceRecorder buffer;
  LinuxKernel kernel(&sim, &buffer);
  kernel.Boot();
  SimNetwork net(&sim);
  const NodeId a = net.AddNode("a");
  const NodeId b = net.AddNode("b");
  net.SetLinkBoth(a, b, LinkParams{});
  TcpStack traced(&sim, &net, a, &kernel, kKernelPid);
  TcpStack remote(&sim, &net, b, nullptr, kKernelPid);
  TcpListener* listener = remote.Listen();
  listener->on_accept = [](TcpConnection*) {};
  for (int i = 0; i < 100; ++i) {
    sim.ScheduleAt(i * 100 * kMillisecond, [&] {
      traced.Connect(listener, [](TcpConnection* conn) { conn->Close(); }, nullptr);
    });
  }
  sim.RunUntil(kMinute);
  std::set<TimerId> ids;
  for (const auto& r : buffer.records()) {
    ids.insert(r.timer);
  }
  EXPECT_LE(ids.size(), 16u);
}

// --- resolver ---

TEST(ResolverTest, KnownNameResolvesQuickly) {
  Simulator sim(1);
  SimNetwork net(&sim);
  const NodeId self = net.AddNode("self");
  const NodeId dns = net.AddNode("dns");
  const NodeId target = net.AddNode("target");
  NameProvider provider(&sim, &net, self, dns, "dns", NameProvider::Options{});
  provider.Register("fileserver", target);
  bool found = false;
  NodeId node = kInvalidNode;
  SimDuration elapsed = 0;
  provider.Lookup("fileserver", [&](bool f, NodeId n, SimDuration e) {
    found = f;
    node = n;
    elapsed = e;
  });
  sim.RunUntil(kMinute);
  EXPECT_TRUE(found);
  EXPECT_EQ(node, target);
  EXPECT_LT(elapsed, 10 * kMillisecond);
}

TEST(ResolverTest, UnknownNameCostsFullRetrySchedule) {
  Simulator sim(1);
  SimNetwork net(&sim);
  const NodeId self = net.AddNode("self");
  const NodeId dns = net.AddNode("dns");
  NameProvider::Options options;
  options.timeout = 5 * kSecond;
  options.retries = 1;
  NameProvider provider(&sim, &net, self, dns, "dns", options);
  bool done = false;
  SimDuration elapsed = 0;
  provider.Lookup("tpyo", [&](bool f, NodeId, SimDuration e) {
    EXPECT_FALSE(f);
    done = true;
    elapsed = e;
  });
  sim.RunUntil(kMinute);
  EXPECT_TRUE(done);
  EXPECT_EQ(elapsed, 10 * kSecond);  // 2 attempts x 5 s
}

TEST(ResolverTest, SuccessfulLookupsLeaveNoPendingTimeoutEvents) {
  Simulator sim(1);
  SimNetwork net(&sim);
  const NodeId self = net.AddNode("self");
  const NodeId dns = net.AddNode("dns");
  const NodeId target = net.AddNode("target");
  NameProvider::Options options;
  options.timeout = 5 * kSecond;
  options.retries = 3;
  NameProvider provider(&sim, &net, self, dns, "dns", options);
  provider.Register("fileserver", target);
  constexpr int kLookups = 50;
  int resolved = 0;
  for (int i = 0; i < kLookups; ++i) {
    provider.Lookup("fileserver", [&](bool f, NodeId, SimDuration) {
      if (f) {
        ++resolved;
      }
    });
  }
  // Replies arrive within milliseconds; run well past them but well before
  // the 5 s timeouts would have fired as dead no-op events.
  sim.RunUntil(kSecond);
  EXPECT_EQ(resolved, kLookups);
  // Each answered attempt must cancel its timeout: nothing may stay queued.
  EXPECT_EQ(sim.PendingEvents(), 0u);
}

TEST(ResolverTest, TimeoutStillFiresWhenReplyNeverArrives) {
  // The timeout cancellation must not break the retry path: an unknown
  // name still walks the full retry schedule.
  Simulator sim(1);
  SimNetwork net(&sim);
  const NodeId self = net.AddNode("self");
  const NodeId dns = net.AddNode("dns");
  NameProvider::Options options;
  options.timeout = kSecond;
  options.retries = 2;
  NameProvider provider(&sim, &net, self, dns, "dns", options);
  bool done = false;
  provider.Lookup("unknown", [&](bool f, NodeId, SimDuration e) {
    EXPECT_FALSE(f);
    EXPECT_EQ(e, 3 * kSecond);  // 3 attempts x 1 s
    done = true;
  });
  sim.RunUntil(kMinute);
  EXPECT_TRUE(done);
  EXPECT_EQ(sim.PendingEvents(), 0u);
}

TEST(ResolverTest, ParallelResolutionTakesFirstWinner) {
  Simulator sim(1);
  SimNetwork net(&sim);
  const NodeId self = net.AddNode("self");
  const NodeId wins_server = net.AddNode("wins");
  const NodeId dns_server = net.AddNode("dns");
  const NodeId target = net.AddNode("target");
  NameProvider::Options wins_options;
  wins_options.timeout = FromMilliseconds(1500);
  wins_options.retries = 2;
  NameProvider wins(&sim, &net, self, wins_server, "wins", wins_options);
  NameProvider dns(&sim, &net, self, dns_server, "dns", NameProvider::Options{});
  dns.Register("server", target);  // only DNS knows it
  ParallelResolver resolver(&sim);
  resolver.AddProvider(&wins);
  resolver.AddProvider(&dns);
  bool found = false;
  resolver.Resolve("server", [&](bool f, NodeId n, SimDuration) {
    found = f;
    EXPECT_EQ(n, target);
  });
  sim.RunUntil(kMinute);
  EXPECT_TRUE(found);
}

TEST(ResolverTest, ParallelFailureWaitsForSlowestProvider) {
  Simulator sim(1);
  SimNetwork net(&sim);
  const NodeId self = net.AddNode("self");
  const NodeId wins_server = net.AddNode("wins");
  const NodeId dns_server = net.AddNode("dns");
  NameProvider::Options wins_options;
  wins_options.timeout = FromMilliseconds(1500);
  wins_options.retries = 2;  // 4.5 s total
  NameProvider wins(&sim, &net, self, wins_server, "wins", wins_options);
  NameProvider::Options dns_options;
  dns_options.timeout = 5 * kSecond;
  dns_options.retries = 1;  // 10 s total
  NameProvider dns(&sim, &net, self, dns_server, "dns", dns_options);
  ParallelResolver resolver(&sim);
  resolver.AddProvider(&wins);
  resolver.AddProvider(&dns);
  SimDuration elapsed = 0;
  resolver.Resolve("tpyo", [&](bool f, NodeId, SimDuration e) {
    EXPECT_FALSE(f);
    elapsed = e;
  });
  sim.RunUntil(kMinute);
  EXPECT_EQ(elapsed, 10 * kSecond);  // bound by the slowest provider
}

// --- RPC ---

TEST(RpcTest, HealthyCallCompletesFirstAttempt) {
  Simulator sim(1);
  SimNetwork net(&sim);
  const NodeId c = net.AddNode("client");
  const NodeId s = net.AddNode("server");
  RpcServer server(&sim, &net, s);
  RpcClient client(&sim, &net, c);
  RpcClient::Result result;
  client.Call(&server, 512, [&](RpcClient::Result r) { result = r; });
  sim.RunUntil(kMinute);
  EXPECT_TRUE(result.ok);
  EXPECT_EQ(result.attempts, 1);
  EXPECT_LT(result.elapsed, 100 * kMillisecond);
}

TEST(RpcTest, DeadServerExhaustsExponentialBackoff) {
  Simulator sim(1);
  SimNetwork net(&sim);
  const NodeId c = net.AddNode("client");
  const NodeId s = net.AddNode("server");
  RpcServer server(&sim, &net, s);
  server.set_down(true);
  RpcClient client(&sim, &net, c);
  RpcClient::Result result;
  client.Call(&server, 512, [&](RpcClient::Result r) { result = r; });
  sim.RunUntil(10 * kMinute);
  EXPECT_FALSE(result.ok);
  EXPECT_EQ(result.attempts, 8);  // initial + 7 retries
  // 0.5 + 1 + 2 + 4 + 8 + 16 + 32 + 64 = 127.5 s of waiting.
  EXPECT_NEAR(ToSeconds(result.elapsed), 127.5, 1.0);
}

TEST(RpcTest, RefusedConnectionBackoffTakesOverAMinute) {
  // Section 2.2.2: "recovering from a typing error can take over a minute"
  // — the SunRPC refused-connection schedule.
  Simulator sim(1);
  SimNetwork net(&sim);
  const NodeId c = net.AddNode("client");
  const NodeId s = net.AddNode("server");
  RpcServer server(&sim, &net, s);
  server.set_refuse_connections(true);
  RpcClient client(&sim, &net, c);
  bool ok = true;
  SimDuration elapsed = 0;
  client.Connect(&server, [&](bool o, SimDuration e) {
    ok = o;
    elapsed = e;
  });
  sim.RunUntil(10 * kMinute);
  EXPECT_FALSE(ok);
  EXPECT_GT(elapsed, 60 * kSecond);
  EXPECT_LT(elapsed, 70 * kSecond);
}

TEST(RpcTest, HealthyConnectIsOneRoundTrip) {
  Simulator sim(1);
  SimNetwork net(&sim);
  const NodeId c = net.AddNode("client");
  const NodeId s = net.AddNode("server");
  RpcServer server(&sim, &net, s);
  RpcClient client(&sim, &net, c);
  bool ok = false;
  SimDuration elapsed = 0;
  client.Connect(&server, [&](bool o, SimDuration e) {
    ok = o;
    elapsed = e;
  });
  sim.RunUntil(kMinute);
  EXPECT_TRUE(ok);
  EXPECT_LT(elapsed, 10 * kMillisecond);
}

// --- FileBrowser (the layering pathology) ---

struct BrowserFixture {
  Simulator sim{5};
  SimNetwork net{&sim};
  NodeId self;
  NodeId dns_node;
  NodeId server_node;
  std::unique_ptr<NameProvider> dns;
  std::unique_ptr<ParallelResolver> resolver;
  std::unique_ptr<RpcClient> rpc;
  std::unique_ptr<RpcServer> server;
  std::unique_ptr<FileBrowser> browser;

  BrowserFixture() {
    self = net.AddNode("desktop");
    dns_node = net.AddNode("dns");
    server_node = net.AddNode("fileserver");
    // The paper's 130 ms round-trip to the file server.
    LinkParams wan;
    wan.latency = 65 * kMillisecond;
    wan.jitter_sigma = 0.05;
    net.SetLinkBoth(self, server_node, wan);
    dns = std::make_unique<NameProvider>(&sim, &net, self, dns_node, "dns",
                                         NameProvider::Options{});
    dns->Register("fileserver", server_node);
    resolver = std::make_unique<ParallelResolver>(&sim);
    resolver->AddProvider(dns.get());
    rpc = std::make_unique<RpcClient>(&sim, &net, self);
    server = std::make_unique<RpcServer>(&sim, &net, server_node);
    browser = std::make_unique<FileBrowser>(&sim, &net, resolver.get(), rpc.get(), self);
    for (const auto& spec : DefaultFileProtocols()) {
      browser->AddProtocol(spec);
    }
  }
};

TEST(FileBrowserTest, HealthyOpenCompletesNearRoundTripTime) {
  BrowserFixture f;
  FileBrowser::Result result;
  f.browser->Open("fileserver", f.server.get(), [&](FileBrowser::Result r) { result = r; });
  f.sim.RunUntil(kMinute);
  EXPECT_TRUE(result.success);
  EXPECT_TRUE(result.resolved);
  // "a response from the file server usually arrives shortly after the
  //  130 ms round-trip time"
  EXPECT_LT(ToSeconds(result.elapsed), 1.0);
}

TEST(FileBrowserTest, DeadServerTakesOverAMinuteToReport) {
  BrowserFixture f;
  f.server->set_refuse_connections(true);
  FileBrowser::Result result;
  f.browser->Open("fileserver", f.server.get(), [&](FileBrowser::Result r) { result = r; });
  f.sim.RunUntil(10 * kMinute);
  EXPECT_FALSE(result.success);
  EXPECT_TRUE(result.resolved);
  // Failure is reported only after the most conservative layer (NFS's
  // SunRPC backoff) gives up: over a minute.
  EXPECT_GT(ToSeconds(result.elapsed), 60.0);
}

TEST(FileBrowserTest, UnresolvedNameFailsAfterResolverTimeouts) {
  BrowserFixture f;
  FileBrowser::Result result;
  result.success = true;
  f.browser->Open("tpyo", nullptr, [&](FileBrowser::Result r) { result = r; });
  f.sim.RunUntil(10 * kMinute);
  EXPECT_FALSE(result.success);
  EXPECT_FALSE(result.resolved);
  EXPECT_GE(ToSeconds(result.elapsed), 9.9);  // DNS: 2 x 5 s
}

// --- HTTP ---

TEST(HttpTest, ServerHandlesLoadGeneratorRequests) {
  Simulator sim(9);
  TraceRecorder buffer;
  LinuxKernel kernel(&sim, &buffer);
  KernelSubsystemsOptions sub_options;
  sub_options.lan_event_rate = 0;
  sub_options.console_activity_rate = 0;
  KernelSubsystems subsystems(&kernel, sub_options);
  LinuxSyscalls syscalls(&kernel);
  kernel.Boot();
  subsystems.Start();
  SimNetwork net(&sim);
  const NodeId server_node = net.AddNode("server");
  const NodeId client_node = net.AddNode("client");
  net.SetLinkBoth(server_node, client_node, LinkParams{});
  const Pid apache = sim.processes().AddProcess("apache2");
  TcpStack server_stack(&sim, &net, server_node, &kernel, kKernelPid);
  TcpStack client_stack(&sim, &net, client_node, nullptr, kKernelPid);
  HttpServer server(&kernel, &syscalls, &server_stack, apache, HttpServer::Options{},
                    &subsystems);
  TcpListener* listener = server.Start();

  HttpLoadGenerator::Options load;
  load.total_requests = 200;
  load.think_time_mean = 50 * kMillisecond;
  HttpLoadGenerator generator(&client_stack, listener, load);
  bool done = false;
  generator.Start([&] { done = true; });
  sim.RunUntil(5 * kMinute);
  EXPECT_TRUE(done);
  EXPECT_EQ(generator.completed(), 200u);
  EXPECT_EQ(generator.failed(), 0u);
  EXPECT_EQ(server.requests_served(), 200u);
}

TEST(HttpTest, ServerTraceContainsApacheAndTcpTimers) {
  Simulator sim(9);
  TraceRecorder buffer;
  LinuxKernel kernel(&sim, &buffer);
  KernelSubsystemsOptions sub_options;
  sub_options.lan_event_rate = 0;
  sub_options.console_activity_rate = 0;
  KernelSubsystems subsystems(&kernel, sub_options);
  LinuxSyscalls syscalls(&kernel);
  kernel.Boot();
  subsystems.Start();
  SimNetwork net(&sim);
  const NodeId server_node = net.AddNode("server");
  const NodeId client_node = net.AddNode("client");
  net.SetLinkBoth(server_node, client_node, LinkParams{});
  const Pid apache = sim.processes().AddProcess("apache2");
  TcpStack server_stack(&sim, &net, server_node, &kernel, kKernelPid);
  TcpStack client_stack(&sim, &net, client_node, nullptr, kKernelPid);
  HttpServer server(&kernel, &syscalls, &server_stack, apache, HttpServer::Options{},
                    &subsystems);
  TcpListener* listener = server.Start();
  HttpLoadGenerator::Options load;
  load.total_requests = 50;
  load.think_time_mean = 20 * kMillisecond;
  HttpLoadGenerator generator(&client_stack, listener, load);
  generator.Start(nullptr);
  sim.RunUntil(kMinute);

  std::set<std::string> seen;
  for (const auto& r : buffer.records()) {
    if (r.op == TimerOp::kSet) {
      seen.insert(kernel.callsites().Name(r.callsite));
    }
  }
  for (const char* expected : {"apache2/event_loop", "apache2/socket_poll", "net/sockets",
                               "tcp/retransmit", "tcp/keepalive"}) {
    EXPECT_TRUE(seen.count(expected)) << "missing " << expected;
  }
}

}  // namespace
}  // namespace tempo

namespace tempo {
namespace {

TEST(VistaTcpWheelTest, PrivateWheelKeepsTcpOutOfTheTrace) {
  // The paper: Vista's TCP/IP stack was re-architected to use per-CPU
  // timing wheels, so TCP timers never appear in the KTIMER trace (and the
  // 7200 s keepalive is absent from the Vista webserver trace). A stack in
  // private-wheel mode must work — retransmissions included — while the
  // instrumented kernel records nothing for it.
  Simulator sim(3);
  TraceRecorder buffer;
  LinuxKernel kernel(&sim, &buffer);  // stands in for the instrumented host
  kernel.Boot();
  const size_t baseline_records = buffer.records().size();
  SimNetwork net(&sim);
  const NodeId a = net.AddNode("a");
  const NodeId b = net.AddNode("b");
  LinkParams lossy;
  lossy.latency = kMillisecond;
  lossy.loss = 0.3;
  net.SetLinkBoth(a, b, lossy);
  TcpStack vista_stack(&sim, &net, a, &kernel, kKernelPid);
  vista_stack.UsePrivateWheel();
  TcpStack remote(&sim, &net, b, nullptr, kKernelPid);
  TcpListener* listener = remote.Listen();
  size_t received = 0;
  listener->on_accept = [&](TcpConnection* conn) {
    conn->on_data = [&](size_t bytes) { received += bytes; };
  };
  int acked = 0;
  vista_stack.Connect(listener, [&](TcpConnection* conn) {
    conn->Send(1000, [&] { ++acked; });
  }, nullptr);
  sim.RunUntil(5 * kMinute);
  EXPECT_EQ(acked, 1);
  EXPECT_EQ(received, 1000u);
  EXPECT_GT(vista_stack.wheel_services(), 0u);
  // Not one TCP timer record reached the instrumented interface: only the
  // timer structs allocated before the wheel took over (none here).
  size_t tcp_records = 0;
  for (size_t i = baseline_records; i < buffer.records().size(); ++i) {
    const auto& r = buffer.records()[i];
    const std::string& name = kernel.callsites().Name(r.callsite);
    if (name.rfind("tcp/", 0) == 0 || name.rfind("net/", 0) == 0) {
      ++tcp_records;
    }
  }
  EXPECT_EQ(tcp_records, 0u);
}

TEST(VistaTcpWheelTest, KernelModeDoesTraceTheSameExchange) {
  // Control: the identical exchange on a kernel-bound stack produces TCP
  // records — isolating the effect to the wheel binding.
  Simulator sim(3);
  TraceRecorder buffer;
  LinuxKernel kernel(&sim, &buffer);
  kernel.Boot();
  SimNetwork net(&sim);
  const NodeId a = net.AddNode("a");
  const NodeId b = net.AddNode("b");
  net.SetLinkBoth(a, b, LinkParams{});
  TcpStack linux_stack(&sim, &net, a, &kernel, kKernelPid);
  TcpStack remote(&sim, &net, b, nullptr, kKernelPid);
  TcpListener* listener = remote.Listen();
  listener->on_accept = [](TcpConnection*) {};
  linux_stack.Connect(listener, [](TcpConnection* conn) { conn->Send(1000, nullptr); },
                      nullptr);
  sim.RunUntil(kMinute);
  size_t tcp_records = 0;
  for (const auto& r : buffer.records()) {
    const std::string& name = kernel.callsites().Name(r.callsite);
    if (name.rfind("tcp/", 0) == 0 || name.rfind("net/", 0) == 0) {
      ++tcp_records;
    }
  }
  EXPECT_GT(tcp_records, 0u);
}

}  // namespace
}  // namespace tempo

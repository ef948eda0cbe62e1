// Tests for the DHCP lease timers — the RFC 2131 overlapping-timer set the
// paper cites in Section 5.2.

#include <gtest/gtest.h>

#include "src/adaptive/dependency.h"
#include "src/net/dhcp.h"
#include "src/trace/buffer.h"

namespace tempo {
namespace {

class DhcpTest : public ::testing::Test {
 protected:
  DhcpTest()
      : kernel_(&sim_, &buffer_, NoJitter()), net_(&sim_),
        client_node_(net_.AddNode("laptop")), server_node_(net_.AddNode("dhcpd")),
        server_(&sim_, &net_, server_node_, /*lease=*/60 * kSecond),
        client_(&kernel_, &net_, client_node_, &server_, /*pid=*/1) {
    LinkParams lan;
    lan.latency = 200 * kMicrosecond;
    net_.SetLinkBoth(client_node_, server_node_, lan);
    kernel_.Boot();
  }

  static LinuxKernel::Options NoJitter() {
    LinuxKernel::Options options;
    options.max_set_jitter = 0;
    return options;
  }

  Simulator sim_{4};
  TraceRecorder buffer_;
  LinuxKernel kernel_;
  SimNetwork net_;
  NodeId client_node_;
  NodeId server_node_;
  DhcpServer server_;
  DhcpClient client_;
};

TEST_F(DhcpTest, AcquiresLeaseAndArmsAllThreeTimers) {
  client_.Start();
  sim_.RunUntil(kSecond);
  EXPECT_EQ(client_.state(), DhcpState::kBound);
  // All three overlapping timers armed together, T1 < T2 < expiry.
  std::map<std::string, SimDuration> sets;
  for (const auto& r : buffer_.records()) {
    if (r.op == TimerOp::kSet) {
      sets[kernel_.callsites().Name(r.callsite)] = r.timeout;
    }
  }
  ASSERT_EQ(sets.count("dhcp/t1_renew"), 1u);
  ASSERT_EQ(sets.count("dhcp/t2_rebind"), 1u);
  ASSERT_EQ(sets.count("dhcp/lease_expiry"), 1u);
  EXPECT_EQ(sets["dhcp/t1_renew"], 30 * kSecond);        // 0.5 * lease
  EXPECT_EQ(sets["dhcp/t2_rebind"], FromSeconds(52.5));  // 0.875 * lease
  EXPECT_EQ(sets["dhcp/lease_expiry"], 60 * kSecond);
}

TEST_F(DhcpTest, HealthyServerRenewsAtT1Forever) {
  client_.Start();
  // +1 s so the run does not end exactly on a T1 boundary mid-renewal.
  sim_.RunUntil(10 * kMinute + kSecond);
  EXPECT_EQ(client_.state(), DhcpState::kBound);
  // Renewal every ~30 s: ~19-20 renewals in 10 minutes.
  EXPECT_GE(client_.renewals(), 18u);
  EXPECT_EQ(client_.rebinds(), 0u);
  EXPECT_EQ(client_.lease_losses(), 0u);
}

TEST_F(DhcpTest, DeadServerWalksRenewRebindExpire) {
  client_.Start();
  sim_.RunUntil(kSecond);
  server_.set_down(true);
  bool lost = false;
  client_.on_lease_lost = [&] { lost = true; };
  // T1 at 30 s -> renewing; T2 at 52.5 s -> rebinding; expiry at 60 s.
  sim_.RunUntil(40 * kSecond);
  EXPECT_EQ(client_.state(), DhcpState::kRenewing);
  sim_.RunUntil(55 * kSecond);
  EXPECT_EQ(client_.state(), DhcpState::kRebinding);
  sim_.RunUntil(kMinute + 2 * kSecond);
  EXPECT_TRUE(lost);
  EXPECT_EQ(client_.lease_losses(), 1u);
  EXPECT_EQ(client_.state(), DhcpState::kInit);
}

TEST_F(DhcpTest, ServerRecoveryDuringRebindSavesLease) {
  client_.Start();
  sim_.RunUntil(kSecond);
  server_.set_down(true);
  // Come back while the client is rebinding (between 52.5 s and 60 s).
  sim_.ScheduleAt(55 * kSecond, [&] { server_.set_down(false); });
  sim_.RunUntil(2 * kMinute);
  EXPECT_EQ(client_.lease_losses(), 0u);
  EXPECT_GE(client_.rebinds(), 1u);
  EXPECT_EQ(client_.state(), DhcpState::kBound);
}

TEST_F(DhcpTest, RenewalCancelsTheOverlappingSetTogether) {
  client_.Start();
  sim_.RunUntil(35 * kSecond);  // past the first renewal
  size_t expiry_cancels = 0;
  size_t t2_cancels = 0;
  for (const auto& r : buffer_.records()) {
    if (r.op != TimerOp::kCancel) {
      continue;
    }
    const std::string& name = kernel_.callsites().Name(r.callsite);
    expiry_cancels += name == "dhcp/lease_expiry" ? 1 : 0;
    t2_cancels += name == "dhcp/t2_rebind" ? 1 : 0;
  }
  // The ACK canceled T2 and the expiry even though neither was close to
  // firing — the cancel-together idiom of Section 5.2.
  EXPECT_GE(expiry_cancels, 1u);
  EXPECT_GE(t2_cancels, 1u);
}

TEST_F(DhcpTest, DependencyGraphProvesT1T2Redundant) {
  // Declaring the RFC 2131 set to the dependency graph shows only the
  // lease expiry matters for failure detection (max-wins), and the rewrite
  // collapses three concurrent timers to one.
  TimerDependencyGraph graph;
  const uint32_t expiry = graph.AddTimer("dhcp/lease_expiry", 60 * kSecond);
  const uint32_t t2 = graph.AddTimer("dhcp/t2_rebind", FromSeconds(52.5));
  const uint32_t t1 = graph.AddTimer("dhcp/t1_renew", 30 * kSecond);
  EXPECT_TRUE(graph.Relate(expiry, t2, TimerRelation::kOverlapMaxWins));
  EXPECT_TRUE(graph.Relate(t2, t1, TimerRelation::kOverlapMaxWins));
  const auto analysis = graph.Analyse();
  EXPECT_EQ(analysis.removable.size(), 2u);  // T1 and T2
  EXPECT_EQ(analysis.concurrent_before, 3u);
  EXPECT_EQ(analysis.concurrent_after, 1u);
}

}  // namespace
}  // namespace tempo

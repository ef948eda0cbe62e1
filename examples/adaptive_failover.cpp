// Adaptive failure detection for a replicated service (Section 5.1 put to
// work): a client load-balances requests over two replicas and uses a
// learned 99%-confidence timeout per replica instead of a hardcoded
// 30-second constant. When a replica dies mid-run, the client fails over
// at the timescale of the observed latencies.
//
// Demonstrates the public API: Simulator + SimNetwork + RpcServer/RpcClient
// for the substrate, AdaptiveTimeout + TimerSurface for the policy.

#include <cstdio>
#include <memory>

#include "src/adaptive/adaptive_timeout.h"
#include "src/adaptive/timer_service.h"
#include "src/net/rpc.h"

namespace {

using namespace tempo;

// A client slot bound to one replica, with its own learned timeout.
class ReplicaClient {
 public:
  ReplicaClient(Simulator* sim, SimNetwork* net, TimerSurface* timers, NodeId self,
                RpcServer* replica, const char* name)
      : sim_(sim), timers_(timers), replica_(replica), name_(name),
        rpc_(sim, net, self, NoRetryOptions()) {}

  // Issues one request; cb(ok) after reply or adaptive timeout.
  void Call(std::function<void(bool)> cb) {
    const SimTime started = sim_->Now();
    auto done = std::make_shared<bool>(false);
    const SimDuration timeout = adaptive_.Current();
    const ServiceTimerId guard = timers_->Arm(timeout, [this, done, cb] {
      if (*done) {
        return;
      }
      *done = true;
      adaptive_.RecordTimeout();
      ++timeouts_;
      cb(false);
    });
    rpc_.Call(replica_, 256, [this, done, guard, started, cb](RpcClient::Result r) {
      if (*done) {
        return;  // already timed out; late reply only feeds the model
      }
      *done = true;
      timers_->Cancel(guard);
      if (r.ok) {
        adaptive_.RecordSuccess(sim_->Now() - started);
        ++successes_;
      }
      cb(r.ok);
    });
  }

  const char* name() const { return name_; }
  SimDuration current_timeout() const { return adaptive_.Current(); }
  uint64_t successes() const { return successes_; }
  uint64_t timeouts() const { return timeouts_; }

 private:
  static RpcClient::Options NoRetryOptions() {
    RpcClient::Options options;
    options.max_retries = 0;  // the adaptive guard handles failure
    options.initial_timeout = 10 * kMinute;
    return options;
  }

  Simulator* sim_;
  TimerSurface* timers_;
  RpcServer* replica_;
  const char* name_;
  RpcClient rpc_;
  AdaptiveTimeout adaptive_;
  uint64_t successes_ = 0;
  uint64_t timeouts_ = 0;
};

}  // namespace

int main() {
  Simulator sim(77);
  SimNetwork net(&sim);
  SimTimerService timers(&sim);

  const NodeId client_node = net.AddNode("client");
  const NodeId a_node = net.AddNode("replica-a");
  const NodeId b_node = net.AddNode("replica-b");
  LinkParams lan;
  lan.latency = 300 * kMicrosecond;
  lan.jitter_sigma = 0.4;
  net.SetLinkBoth(client_node, a_node, lan);
  LinkParams wan;
  wan.latency = 40 * kMillisecond;  // replica B is in another region
  wan.jitter_sigma = 0.3;
  net.SetLinkBoth(client_node, b_node, wan);

  RpcServer replica_a(&sim, &net, a_node);
  RpcServer replica_b(&sim, &net, b_node);
  ReplicaClient a(&sim, &net, &timers, client_node, &replica_a, "A(lan)");
  ReplicaClient b(&sim, &net, &timers, client_node, &replica_b, "B(wan)");

  // Round-robin requests every ~50 ms; fail over to the other replica on
  // timeout. Replica A dies at t=60 s.
  sim.ScheduleAt(60 * kSecond, [&] {
    std::printf("t=60s: replica A crashes (silently drops requests)\n");
    replica_a.set_down(true);
  });

  uint64_t failovers = 0;
  SimTime first_detection = 0;
  std::function<void(int)> issue = [&](int i) {
    ReplicaClient& primary = (i % 2 == 0) ? a : b;
    ReplicaClient& backup = (i % 2 == 0) ? b : a;
    primary.Call([&, i](bool ok) {
      if (!ok) {
        ++failovers;
        if (first_detection == 0 && sim.Now() > 60 * kSecond) {
          first_detection = sim.Now();
          std::printf("t=%.3fs: first timeout on dead replica detected after %.3f s\n",
                      ToSeconds(sim.Now()), ToSeconds(sim.Now() - 60 * kSecond));
        }
        backup.Call([](bool) {});
      }
    });
    if (i < 2400) {
      sim.ScheduleAfter(50 * kMillisecond, [&issue, i] { issue(i + 1); });
    }
  };
  issue(0);
  sim.RunUntil(3 * kMinute);

  std::printf("\nafter %s:\n", FormatDuration(sim.Now()).c_str());
  for (const ReplicaClient* r : {&a, &b}) {
    std::printf("  %-7s successes=%llu timeouts=%llu learned timeout=%s\n", r->name(),
                static_cast<unsigned long long>(r->successes()),
                static_cast<unsigned long long>(r->timeouts()),
                FormatDuration(r->current_timeout()).c_str());
  }
  std::printf("  failovers: %llu\n", static_cast<unsigned long long>(failovers));
  std::printf(
      "\nnote: with the classic fixed 30 s timeout, every request to the dead\n"
      "replica would stall for 30 s; the learned timeouts detect failure at\n"
      "each replica's own latency scale (sub-second for the LAN replica).\n");
  return 0;
}

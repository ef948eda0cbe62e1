// Unit tests for the simulation core: time, RNG, event queue, simulator,
// CPU accounting, process table.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <functional>
#include <iterator>
#include <limits>
#include <memory>
#include <new>
#include <numeric>
#include <queue>
#include <string>
#include <vector>

#include "src/obs/metrics.h"
#include "src/obs/probe.h"
#include "src/sim/cpu.h"
#include "src/sim/event_queue.h"
#include "src/sim/process.h"
#include "src/sim/random.h"
#include "src/sim/simulator.h"
#include "src/sim/time.h"

// Global operator new replacements that count calls while
// g_count_allocations is set (EventQueueTest.NoAllocationOnceGrown). Every
// form, and every matching delete, goes through malloc and free, so a
// sanitizer still sees one allocator family.
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

// --- time.h ---

TEST(TimeTest, ConversionRoundTrips) {
  EXPECT_EQ(FromSeconds(1.0), kSecond);
  EXPECT_EQ(FromSeconds(0.5), 500 * kMillisecond);
  EXPECT_EQ(FromMilliseconds(1.0), kMillisecond);
  EXPECT_EQ(FromMicroseconds(1.0), kMicrosecond);
  EXPECT_DOUBLE_EQ(ToSeconds(kSecond), 1.0);
  EXPECT_DOUBLE_EQ(ToMilliseconds(kMillisecond), 1.0);
}

TEST(TimeTest, UnitRelationships) {
  EXPECT_EQ(kMicrosecond, 1000 * kNanosecond);
  EXPECT_EQ(kMillisecond, 1000 * kMicrosecond);
  EXPECT_EQ(kSecond, 1000 * kMillisecond);
  EXPECT_EQ(kMinute, 60 * kSecond);
  EXPECT_EQ(kHour, 60 * kMinute);
}

TEST(TimeTest, FormatDurationPicksUnits) {
  EXPECT_EQ(FormatDuration(2 * kSecond), "2s");
  EXPECT_EQ(FormatDuration(FromMilliseconds(1.5)), "1.5ms");
  EXPECT_EQ(FormatDuration(25 * kMicrosecond), "25us");
  EXPECT_EQ(FormatDuration(12), "12ns");
  EXPECT_EQ(FormatDuration(-2 * kSecond), "-2s");
  EXPECT_EQ(FormatDuration(7200 * kSecond), "7200s");
  // A damaged trace can carry any 64-bit value, including one with no
  // positive twin.
  EXPECT_EQ(FormatDuration(std::numeric_limits<SimDuration>::min()), "-9.22337e+09s");
}

// --- random.h ---

TEST(RngTest, DeterministicGivenSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int differing = 0;
  for (int i = 0; i < 64; ++i) {
    differing += a.NextU64() != b.NextU64() ? 1 : 0;
  }
  EXPECT_GT(differing, 60);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.NextDouble();
    ASSERT_GE(v, 0.0);
    ASSERT_LT(v, 1.0);
  }
}

TEST(RngTest, UniformIntCoversRangeInclusive) {
  Rng rng(9);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 10000; ++i) {
    const int64_t v = rng.UniformInt(3, 7);
    ASSERT_GE(v, 3);
    ASSERT_LE(v, 7);
    saw_lo = saw_lo || v == 3;
    saw_hi = saw_hi || v == 7;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, UniformIntDegenerateRange) {
  Rng rng(1);
  EXPECT_EQ(rng.UniformInt(5, 5), 5);
  EXPECT_EQ(rng.UniformInt(5, 4), 5);  // hi < lo clamps to lo
}

TEST(RngTest, BernoulliEdgeCases) {
  Rng rng(1);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
  }
}

TEST(RngTest, ExponentialMeanApproximatelyCorrect) {
  Rng rng(11);
  double sum = 0;
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i) {
    const double v = rng.Exponential(2.0);
    ASSERT_GE(v, 0.0);
    sum += v;
  }
  EXPECT_NEAR(sum / kN, 2.0, 0.05);
}

TEST(RngTest, NormalMomentsApproximatelyCorrect) {
  Rng rng(13);
  double sum = 0;
  double sq = 0;
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i) {
    const double v = rng.Normal(5.0, 2.0);
    sum += v;
    sq += v * v;
  }
  const double mean = sum / kN;
  const double var = sq / kN - mean * mean;
  EXPECT_NEAR(mean, 5.0, 0.05);
  EXPECT_NEAR(std::sqrt(var), 2.0, 0.05);
}

TEST(RngTest, ParetoRespectsScale) {
  Rng rng(17);
  for (int i = 0; i < 10000; ++i) {
    ASSERT_GE(rng.Pareto(1.5, 2.0), 1.5);
  }
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng a(21);
  Rng fork = a.Fork();
  // The fork and the parent should not produce identical streams.
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    same += a.NextU64() == fork.NextU64() ? 1 : 0;
  }
  EXPECT_LT(same, 4);
}

// --- event_queue.h ---

TEST(EventQueueTest, FiresInTimeOrder) {
  EventQueue queue;
  std::vector<int> order;
  queue.Schedule(30, [&] { order.push_back(3); });
  queue.Schedule(10, [&] { order.push_back(1); });
  queue.Schedule(20, [&] { order.push_back(2); });
  while (!queue.Empty()) {
    queue.Pop().fn();
  }
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueTest, SameTimeIsFifo) {
  EventQueue queue;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    queue.Schedule(5, [&order, i] { order.push_back(i); });
  }
  while (!queue.Empty()) {
    queue.Pop().fn();
  }
  std::vector<int> expected(10);
  std::iota(expected.begin(), expected.end(), 0);
  EXPECT_EQ(order, expected);
}

TEST(EventQueueTest, CancelPreventsExecution) {
  EventQueue queue;
  bool ran = false;
  const EventId id = queue.Schedule(10, [&] { ran = true; });
  EXPECT_TRUE(queue.Cancel(id));
  EXPECT_TRUE(queue.Empty());
  EXPECT_FALSE(ran);
}

TEST(EventQueueTest, CancelTwiceFails) {
  EventQueue queue;
  const EventId id = queue.Schedule(10, [] {});
  EXPECT_TRUE(queue.Cancel(id));
  EXPECT_FALSE(queue.Cancel(id));
}

TEST(EventQueueTest, CancelAfterPopFails) {
  EventQueue queue;
  const EventId id = queue.Schedule(10, [] {});
  queue.Pop();
  EXPECT_FALSE(queue.Cancel(id));
}

TEST(EventQueueTest, CancelUnknownIdFails) {
  EventQueue queue;
  EXPECT_FALSE(queue.Cancel(42));
}

TEST(EventQueueTest, NextTimeSkipsCanceled) {
  EventQueue queue;
  const EventId early = queue.Schedule(10, [] {});
  queue.Schedule(20, [] {});
  EXPECT_EQ(queue.NextTime(), 10);
  queue.Cancel(early);
  EXPECT_EQ(queue.NextTime(), 20);
}

TEST(EventQueueTest, EmptyQueueNextTimeIsNever) {
  EventQueue queue;
  EXPECT_EQ(queue.NextTime(), kNeverTime);
}

TEST(EventQueueTest, SizeTracksLiveEvents) {
  EventQueue queue;
  const EventId a = queue.Schedule(1, [] {});
  queue.Schedule(2, [] {});
  EXPECT_EQ(queue.Size(), 2u);
  queue.Cancel(a);
  EXPECT_EQ(queue.Size(), 1u);
  queue.Pop();
  EXPECT_EQ(queue.Size(), 0u);
}

TEST(EventQueueTest, ManyInterleavedOperations) {
  EventQueue queue;
  Rng rng(3);
  std::vector<EventId> live;
  int scheduled = 0;
  int fired = 0;
  int canceled = 0;
  for (int i = 0; i < 5000; ++i) {
    const double roll = rng.NextDouble();
    if (roll < 0.5 || live.empty()) {
      ++scheduled;
      live.push_back(queue.Schedule(rng.UniformInt(0, 1000), [&fired] { ++fired; }));
    } else if (roll < 0.75) {
      const size_t idx = static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(live.size()) - 1));
      if (queue.Cancel(live[idx])) {
        ++canceled;
      }
      live.erase(live.begin() + static_cast<ptrdiff_t>(idx));
    } else if (!queue.Empty()) {
      queue.Pop().fn();
    }
  }
  while (!queue.Empty()) {
    queue.Pop().fn();
  }
  // Every scheduled event either fired or was (successfully) canceled.
  EXPECT_EQ(fired + canceled, scheduled);
  EXPECT_GT(fired, 0);
  EXPECT_GT(canceled, 0);
}

// An id must stay dead once its event fired or was canceled, even after the
// queue has handed that event's storage to newer events.
TEST(EventQueueTest, StaleIdsRejectedAfterSlotReuse) {
  EventQueue queue;
  int ran = 0;
  const EventId fired = queue.Schedule(1, [&ran] { ++ran; });
  const EventId canceled = queue.Schedule(2, [&ran] { ++ran; });
  queue.Pop().fn();
  ASSERT_EQ(ran, 1);
  ASSERT_TRUE(queue.Cancel(canceled));
  ASSERT_TRUE(queue.Empty());
  std::vector<EventId> fresh;
  for (int i = 0; i < 4; ++i) {
    fresh.push_back(queue.Schedule(3 + i, [&ran] { ++ran; }));
  }
  for (const EventId id : fresh) {
    EXPECT_NE(id, fired);
    EXPECT_NE(id, canceled);
  }
  EXPECT_FALSE(queue.Cancel(fired));
  EXPECT_FALSE(queue.Cancel(canceled));
  EXPECT_EQ(queue.Size(), fresh.size());
  EXPECT_TRUE(queue.Cancel(fresh[1]));
  while (!queue.Empty()) {
    queue.Pop().fn();
  }
  EXPECT_EQ(ran, 4);
}

// Keeps kPopulation events pending in one queue: each Pop or Cancel is
// followed by a Schedule that takes its place. Every callback captures one
// pointer, like the simulator's `[this]` callbacks.
class SteadyQueueLoad {
 public:
  static constexpr int kPopulation = 64;

  void Fill() {
    for (EventId& id : ids_) {
      id = Arm();
    }
  }
  void Step(bool pop) {
    size_t i = 0;
    if (pop) {
      EventQueue::Fired fired = queue_.Pop();
      now_ = fired.at;
      fired.fn();
      i = static_cast<size_t>(std::find(ids_.begin(), ids_.end(), fired.id) - ids_.begin());
      ASSERT_LT(i, ids_.size());
    } else {
      i = static_cast<size_t>(rng_.UniformInt(0, kPopulation - 1));
      ASSERT_TRUE(queue_.Cancel(ids_[i]));
    }
    ++calls_;
    ids_[i] = Arm();
    ASSERT_EQ(queue_.Size(), static_cast<size_t>(kPopulation));
  }
  uint64_t calls() const { return calls_; }
  uint64_t fired() const { return fired_; }

 private:
  EventId Arm() {
    ++calls_;
    return queue_.Schedule(now_ + rng_.UniformInt(0, 1000), [this] { ++fired_; });
  }

  EventQueue queue_;
  std::array<EventId, kPopulation> ids_{};
  Rng rng_{5};
  SimTime now_ = 0;
  uint64_t calls_ = 0;
  uint64_t fired_ = 0;
};

// Once the slab has grown to the queue's peak population, Schedule, Pop and
// Cancel allocate nothing for closures that std::function stores in place.
TEST(EventQueueTest, NoAllocationOnceGrown) {
  SteadyQueueLoad load;
  Rng rng(9);
  load.Fill();
  for (int i = 0; i < 1000; ++i) {
    load.Step(rng.Bernoulli(0.5));
  }
  const uint64_t warm_calls = load.calls();
  g_allocations = 0;
  g_count_allocations = true;
  while (load.calls() - warm_calls < 100000) {
    load.Step(rng.Bernoulli(0.5));
  }
  g_count_allocations = false;
  EXPECT_EQ(g_allocations.load(), 0u);
  EXPECT_GT(load.fired(), 20000u);
}

// --- differential test against the lazy-deletion queue ---

// The event queue as it was before its slab rewrite: a shared_ptr-held
// callback per event, a weak_ptr index sorted by id for Cancel, and
// canceled entries left in the heap until they reach its head. It is the
// oracle for MatchesReferenceQueue.
class ReferenceEventQueue {
 public:
  struct Fired {
    SimTime at;
    EventId id;
    std::function<void()> fn;
  };

  EventId Schedule(SimTime at, std::function<void()> fn) {
    const EventId id = next_id_++;
    auto slot = std::make_shared<std::function<void()>>(std::move(fn));
    index_.emplace_back(id, slot);
    heap_.push(Entry{at, id, std::move(slot)});
    ++live_;
    return id;
  }

  bool Cancel(EventId id) {
    auto begin = index_.begin() + static_cast<ptrdiff_t>(index_head_);
    auto it = std::lower_bound(begin, index_.end(), id,
                               [](const auto& p, EventId want) { return p.first < want; });
    if (it == index_.end() || it->first != id) {
      return false;
    }
    auto slot = it->second.lock();
    if (!slot || !*slot) {
      return false;
    }
    *slot = nullptr;
    --live_;
    return true;
  }

  bool Empty() const { return live_ == 0; }
  size_t Size() const { return live_; }

  SimTime NextTime() const {
    const_cast<ReferenceEventQueue*>(this)->DropCanceledHead();
    return heap_.empty() ? kNeverTime : heap_.top().at;
  }

  Fired Pop() {
    DropCanceledHead();
    Entry top = heap_.top();
    heap_.pop();
    --live_;
    Fired fired{top.at, top.id, std::move(*top.fn)};
    *top.fn = nullptr;
    while (index_head_ < index_.size()) {
      auto slot = index_[index_head_].second.lock();
      if (slot && *slot) {
        break;
      }
      ++index_head_;
    }
    if (index_head_ > 4096 && index_head_ * 2 > index_.size()) {
      index_.erase(index_.begin(), index_.begin() + static_cast<ptrdiff_t>(index_head_));
      index_head_ = 0;
    }
    return fired;
  }

 private:
  struct Entry {
    SimTime at;
    EventId id;
    std::shared_ptr<std::function<void()>> fn;
    bool operator>(const Entry& other) const {
      return at != other.at ? at > other.at : id > other.id;
    }
  };

  void DropCanceledHead() {
    while (!heap_.empty()) {
      const Entry& top = heap_.top();
      if (top.fn && *top.fn) {
        return;
      }
      heap_.pop();
    }
    index_.clear();
    index_head_ = 0;
  }

  std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> heap_;
  size_t live_ = 0;
  EventId next_id_ = 1;
  std::vector<std::pair<EventId, std::weak_ptr<std::function<void()>>>> index_;
  size_t index_head_ = 0;
};

// One observable outcome, named by the logical event number both sides
// share.
struct QueueEvent {
  char op;  // 'F' fired, 'C' cancel, 'U' cancel of an unknown id, 'N' next time, 'S' size
  int64_t id;
  int64_t value;
  bool operator==(const QueueEvent&) const = default;
};

// Drives one queue through logical event numbers. Every fire and every
// Cancel result (also those made by callbacks while they run) goes into
// `log` in terms of those numbers, so two queues behave alike exactly when
// their logs are equal. Ids of dead events are kept and reused as Cancel
// arguments, so stale ids are exercised throughout.
template <typename Queue>
class LoggedQueue {
 public:
  explicit LoggedQueue(uint64_t seed) : rng_(seed) {}

  void Schedule(SimTime at) {
    const int64_t id = events();
    ids_.push_back(kInvalidEventId);
    ids_[static_cast<size_t>(id)] = queue_.Schedule(at, [this, id] { OnFire(id); });
  }
  void Cancel(int64_t id) {
    log_.push_back({'C', id, queue_.Cancel(ids_[static_cast<size_t>(id)]) ? 1 : 0});
  }
  void CancelUnknown(EventId raw) {
    log_.push_back({'U', 0, queue_.Cancel(raw) ? 1 : 0});
  }
  void Pop() {
    typename Queue::Fired fired = queue_.Pop();
    now_ = fired.at;
    popped_ = fired.id;
    fired.fn();
  }

  Queue& queue() { return queue_; }
  const std::vector<QueueEvent>& log() const { return log_; }
  int64_t events() const { return static_cast<int64_t>(ids_.size()); }
  SimTime now() const { return now_; }

 private:
  // Callback actions: schedule a follow-up (often at this very instant),
  // cancel itself while running, cancel a neighbour (often due at this
  // same instant) or any event, or read the queue's state mid-callback.
  void OnFire(int64_t id) {
    EXPECT_EQ(popped_, ids_[static_cast<size_t>(id)]) << "popped id is not the scheduled one";
    log_.push_back({'F', id, now_});
    const double roll = rng_.NextDouble();
    const int64_t neighbour = rng_.NextDouble() < 0.5 ? id + 1 : id - 1;
    const int64_t any = rng_.UniformInt(0, events() - 1);
    if (roll < 0.30) {
      Schedule(now_ + rng_.UniformInt(0, 2));
    } else if (roll < 0.40) {
      Cancel(id);
    } else if (roll < 0.55 && neighbour >= 0 && neighbour < events()) {
      Cancel(neighbour);
    } else if (roll < 0.70) {
      Cancel(any);
    } else if (roll < 0.85) {
      log_.push_back({'N', id, queue_.NextTime()});
      log_.push_back({'S', id, static_cast<int64_t>(queue_.Size())});
    }
  }

  Queue queue_;
  std::vector<EventId> ids_;  // logical number -> this queue's id
  std::vector<QueueEvent> log_;
  Rng rng_;
  SimTime now_ = 0;
  EventId popped_ = kInvalidEventId;
};

TEST(EventQueueTest, MatchesReferenceQueue) {
  // Ids neither queue hands out: 0, and values whose every bit field is
  // far past anything this run reaches.
  const EventId unknown[] = {kInvalidEventId, ~EventId{0}, (EventId{1} << 63) | 7,
                             EventId{0xffffffff}};
  for (const uint64_t seed : {1u, 2u, 3u, 4u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    LoggedQueue<EventQueue> queue(seed);
    LoggedQueue<ReferenceEventQueue> reference(seed);
    Rng rng(seed * 7919);
    size_t checked = 0;
    size_t emptied = 0;
    for (int step = 0; step < 4000; ++step) {
      // Alternate filling and draining phases, so the queue both grows
      // deep and runs empty.
      const bool draining = (step / 400) % 2 == 1;
      const double roll = rng.NextDouble();
      if (roll < (draining ? 0.05 : 0.25)) {
        // A burst of 1-4 events sharing one timestamp, close to now so
        // bursts interleave with earlier ones at equal times.
        const SimTime at = reference.now() + rng.UniformInt(0, 4);
        for (int64_t n = rng.UniformInt(1, 4); n > 0; --n) {
          queue.Schedule(at);
          reference.Schedule(at);
        }
      } else if (roll < (draining ? 0.15 : 0.40) && queue.events() > 0) {
        // Half of the cancels aim at recent events, which are mostly live.
        const int64_t lo =
            rng.NextDouble() < 0.5 ? std::max<int64_t>(0, queue.events() - 32) : 0;
        const int64_t id = rng.UniformInt(lo, queue.events() - 1);
        queue.Cancel(id);
        reference.Cancel(id);
      } else if (roll < (draining ? 0.18 : 0.45)) {
        const EventId raw =
            unknown[rng.UniformInt(0, static_cast<int64_t>(std::size(unknown)) - 1)];
        queue.CancelUnknown(raw);
        reference.CancelUnknown(raw);
      } else if (!reference.queue().Empty()) {
        queue.Pop();
        reference.Pop();
        emptied += reference.queue().Empty() ? 1 : 0;
      }
      ASSERT_EQ(queue.queue().Size(), reference.queue().Size()) << "step " << step;
      ASSERT_EQ(queue.queue().Empty(), reference.queue().Empty()) << "step " << step;
      ASSERT_EQ(queue.queue().NextTime(), reference.queue().NextTime()) << "step " << step;
      const auto& got = queue.log();
      const auto& want = reference.log();
      ASSERT_EQ(got.size(), want.size()) << "step " << step;
      for (; checked < got.size(); ++checked) {
        ASSERT_EQ(got[checked], want[checked])
            << "step " << step << " event " << checked << ": got " << got[checked].op
            << " id " << got[checked].id << " value " << got[checked].value << ", want "
            << want[checked].op << " id " << want[checked].id << " value "
            << want[checked].value;
      }
    }
    // The run must have fired, canceled and emptied the queue many times.
    const auto count = [&](char op, int64_t value) {
      return std::count_if(queue.log().begin(), queue.log().end(), [&](const QueueEvent& e) {
        return e.op == op && (value < 0 || e.value == value);
      });
    };
    EXPECT_GT(count('F', -1), 1000);
    EXPECT_GT(count('C', 1), 200);
    EXPECT_GT(count('C', 0), 200);
    EXPECT_GT(emptied, 10u);
  }
}

// --- simulator.h ---

TEST(SimulatorTest, TimeAdvancesToEventTimes) {
  Simulator sim;
  std::vector<SimTime> seen;
  sim.ScheduleAt(100, [&] { seen.push_back(sim.Now()); });
  sim.ScheduleAt(50, [&] { seen.push_back(sim.Now()); });
  sim.Run();
  EXPECT_EQ(seen, (std::vector<SimTime>{50, 100}));
  EXPECT_EQ(sim.Now(), 100);
}

TEST(SimulatorTest, ScheduleInPastClampsToNow) {
  Simulator sim;
  sim.ScheduleAt(100, [&] {
    sim.ScheduleAt(10, [&] { EXPECT_EQ(sim.Now(), 100); });
  });
  sim.Run();
  EXPECT_EQ(sim.events_executed(), 2u);
}

TEST(SimulatorTest, RunUntilStopsAtDeadlineAndAdvancesClock) {
  Simulator sim;
  int fired = 0;
  sim.ScheduleAt(10, [&] { ++fired; });
  sim.ScheduleAt(2000, [&] { ++fired; });
  sim.RunUntil(1000);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.Now(), 1000);
  sim.RunUntil(3000);
  EXPECT_EQ(fired, 2);
}

TEST(SimulatorTest, EventExactlyAtDeadlineRuns) {
  Simulator sim;
  bool ran = false;
  sim.ScheduleAt(1000, [&] { ran = true; });
  sim.RunUntil(1000);
  EXPECT_TRUE(ran);
}

TEST(SimulatorTest, StopInterruptsRun) {
  Simulator sim;
  int fired = 0;
  sim.ScheduleAt(1, [&] {
    ++fired;
    sim.Stop();
  });
  sim.ScheduleAt(2, [&] { ++fired; });
  sim.Run();
  EXPECT_EQ(fired, 1);
}

TEST(SimulatorTest, CancelPendingEvent) {
  Simulator sim;
  bool ran = false;
  const EventId id = sim.ScheduleAfter(10, [&] { ran = true; });
  EXPECT_TRUE(sim.Cancel(id));
  sim.Run();
  EXPECT_FALSE(ran);
}

TEST(SimulatorTest, NegativeDelayClampsToZero) {
  Simulator sim;
  SimTime at = -1;
  sim.ScheduleAfter(-50, [&] { at = sim.Now(); });
  sim.Run();
  EXPECT_EQ(at, 0);
}

TEST(SimulatorTest, OptionsSeedMatchesSeedConstructor) {
  Simulator by_seed(42);
  Simulator::Options options;
  options.seed = 42;
  options.stats_label = "";
  Simulator by_options(options);
  // The simulator draws the seed's Rng stream verbatim, however it was
  // constructed: every recorded trace depends on this exact stream.
  Rng plain(42);
  for (int i = 0; i < 256; ++i) {
    const uint64_t want = plain.NextU64();
    ASSERT_EQ(by_seed.rng().NextU64(), want);
    ASSERT_EQ(by_options.rng().NextU64(), want);
  }
}

TEST(SimulatorTest, RunUntilAdvancesClockPastDrainedQueue) {
  Simulator sim;
  SimTime at = -1;
  sim.ScheduleAt(3 * kMicrosecond, [&] { at = sim.Now(); });
  sim.RunUntil(kMillisecond);
  EXPECT_EQ(at, 3 * kMicrosecond);
  // The queue drained at 3 us; the clock still advances to the deadline.
  EXPECT_EQ(sim.Now(), kMillisecond);
}

TEST(SimulatorTest, RunUntilFinishesIdleAccountingAtDeadline) {
  Simulator sim;
  sim.ScheduleAt(0, [&sim] { sim.cpu().EnterIdle(sim.Now()); });
  sim.RunUntil(20 * kMicrosecond);
  // The queue drained at t=0; the open idle period still runs to the
  // deadline the clock advanced to.
  EXPECT_EQ(sim.cpu().idle_time(), 20 * kMicrosecond);
}

TEST(SimulatorTest, CountsPendingAndExecutedEvents) {
  Simulator sim;
  sim.ScheduleAfter(kMicrosecond, [] {});
  const EventId canceled = sim.ScheduleAfter(2 * kMicrosecond, [] {});
  sim.ScheduleAfter(3 * kMicrosecond, [] {});
  EXPECT_EQ(sim.PendingEvents(), 3u);
  EXPECT_TRUE(sim.Cancel(canceled));
  EXPECT_EQ(sim.PendingEvents(), 2u);
  sim.Run();
  EXPECT_EQ(sim.PendingEvents(), 0u);
  EXPECT_EQ(sim.events_executed(), 2u);
}

TEST(SimulatorTest, StopInsideRunUntilKeepsClockAndResumes) {
  Simulator sim;
  sim.ScheduleAt(0, [&sim] { sim.cpu().EnterIdle(sim.Now()); });
  sim.ScheduleAt(5 * kMicrosecond, [&sim] { sim.Stop(); });
  sim.ScheduleAt(8 * kMicrosecond, [] {});
  sim.RunUntil(kMillisecond);
  // A stopped run leaves the clock at the stopping event, not the
  // deadline, and still finalizes idle accounting there.
  EXPECT_EQ(sim.Now(), 5 * kMicrosecond);
  EXPECT_EQ(sim.events_executed(), 2u);
  EXPECT_EQ(sim.cpu().idle_time(), 5 * kMicrosecond);
  // The stop request is consumed: the next run resumes where it left off.
  sim.RunUntil(kMillisecond);
  EXPECT_EQ(sim.events_executed(), 3u);
  EXPECT_EQ(sim.Now(), kMillisecond);
  EXPECT_EQ(sim.cpu().idle_time(), kMillisecond);
}

// --- cpu.h ---

TEST(CpuTest, WakeupCountedOnExitIdle) {
  Cpu cpu;
  cpu.EnterIdle(0);
  cpu.ExitIdle(100);
  EXPECT_EQ(cpu.wakeups(), 1u);
  EXPECT_EQ(cpu.idle_time(), 100);
}

TEST(CpuTest, InterruptWhileIdleWakes) {
  Cpu cpu;
  cpu.EnterIdle(0);
  cpu.OnInterrupt(50, /*timer=*/true);
  EXPECT_EQ(cpu.wakeups(), 1u);
  EXPECT_EQ(cpu.interrupts(), 1u);
  EXPECT_EQ(cpu.timer_interrupts(), 1u);
  EXPECT_FALSE(cpu.idle());
}

TEST(CpuTest, RedundantIdleTransitionsIgnored) {
  Cpu cpu;
  cpu.EnterIdle(0);
  cpu.EnterIdle(10);
  cpu.ExitIdle(20);
  cpu.ExitIdle(30);
  EXPECT_EQ(cpu.wakeups(), 1u);
  EXPECT_EQ(cpu.idle_time(), 20);
}

TEST(CpuTest, FinishFlushesOpenIdlePeriod) {
  Cpu cpu;
  cpu.EnterIdle(0);
  cpu.Finish(500);
  EXPECT_EQ(cpu.idle_time(), 500);
}

TEST(CpuTest, CyclesToDurationUsesFrequency) {
  Cpu cpu(1.0);  // 1 GHz: 1 cycle = 1 ns
  EXPECT_EQ(cpu.CyclesToDuration(1000), 1000);
  Cpu fast(2.0);
  EXPECT_EQ(fast.CyclesToDuration(1000), 500);
}

TEST(CpuTest, ChargeCyclesAccumulates) {
  Cpu cpu;
  cpu.ChargeCycles(236);
  cpu.ChargeCycles(236);
  EXPECT_EQ(cpu.charged_cycles(), 472u);
}

// --- process.h ---

TEST(ProcessTableTest, KernelIsPidZero) {
  ProcessTable table;
  EXPECT_EQ(table.Get(kKernelPid).name, "kernel");
  EXPECT_TRUE(table.Get(kKernelPid).is_kernel);
}

TEST(ProcessTableTest, AddProcessAssignsSequentialPids) {
  ProcessTable table;
  const Pid a = table.AddProcess("a");
  const Pid b = table.AddProcess("b");
  EXPECT_EQ(a, 1);
  EXPECT_EQ(b, 2);
  EXPECT_EQ(table.Get(a).name, "a");
  EXPECT_FALSE(table.Get(a).is_kernel);
}

TEST(ProcessTableTest, ThreadsBelongToProcesses) {
  ProcessTable table;
  const Pid p = table.AddProcess("p");
  const Tid t1 = table.AddThread(p);
  const Tid t2 = table.AddThread(p);
  EXPECT_NE(t1, t2);
  EXPECT_EQ(table.ThreadProcess(t1), p);
  EXPECT_EQ(table.ThreadProcess(t2), p);
}

// --- event_queue.h cancel edges ---

TEST(EventQueueTest, CancelThenPopSameTimestampKeepsFifo) {
  EventQueue q;
  std::vector<int> order;
  q.Schedule(5, [&order] { order.push_back(1); });
  const EventId middle = q.Schedule(5, [&order] { order.push_back(2); });
  q.Schedule(5, [&order] { order.push_back(3); });
  EXPECT_TRUE(q.Cancel(middle));
  // Cancel takes the middle entry out of the heap at once; its neighbours
  // at the same timestamp must keep their FIFO order.
  while (!q.Empty()) {
    EventQueue::Fired fired = q.Pop();
    fired.fn();
  }
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
}

TEST(EventQueueTest, NextTimeOnAllCanceledHeapIsNever) {
  EventQueue q;
  std::vector<EventId> ids;
  for (int i = 0; i < 8; ++i) {
    ids.push_back(q.Schedule(10 + i, [] {}));
  }
  for (const EventId id : ids) {
    EXPECT_TRUE(q.Cancel(id));
  }
  // Cancel leaves no tombstone: with every event canceled the queue is
  // empty, and NextTime reports never rather than a canceled event's
  // timestamp.
  EXPECT_EQ(q.NextTime(), kNeverTime);
  EXPECT_TRUE(q.Empty());
  EXPECT_EQ(q.Size(), 0u);
  // The freed slots take new events; the queue is fully reusable.
  const EventId fresh = q.Schedule(42, [] {});
  EXPECT_EQ(q.NextTime(), 42);
  EXPECT_TRUE(q.Cancel(fresh));
  EXPECT_EQ(q.NextTime(), kNeverTime);
}

TEST(EventQueueTest, LiveTailIdCancelsAfterManyPops) {
  // Fire and cancel thousands of events, then check that their ids stay
  // dead while an id near the tail, still pending, cancels.
  EventQueue q;
  constexpr int kCount = 10000;
  std::vector<EventId> ids;
  ids.reserve(kCount);
  int fired = 0;
  for (int i = 0; i < kCount; ++i) {
    ids.push_back(q.Schedule(i, [&fired] { ++fired; }));
  }
  int canceled = 0;
  for (int i = 0; i < kCount; i += 3) {
    ASSERT_TRUE(q.Cancel(ids[i]));
    ++canceled;
  }
  SimTime last = -1;
  while (q.Size() > 100) {
    EventQueue::Fired f = q.Pop();
    EXPECT_GE(f.at, last);
    last = f.at;
    f.fn();
  }
  // Ids of fired events are gone for good.
  EXPECT_FALSE(q.Cancel(ids[1]));
  EXPECT_FALSE(q.Cancel(ids[3]));  // canceled earlier, not cancelable twice
  // A still-live tail id cancels.
  ASSERT_NE(0, (kCount - 2) % 3);
  EXPECT_TRUE(q.Cancel(ids[kCount - 2]));
  while (!q.Empty()) {
    q.Pop().fn();
  }
  EXPECT_EQ(fired, kCount - canceled - 1);
}

// --- simulator accounting regressions ---

TEST(SimulatorTest, RunFinalizesIdleAccountingLikeRunUntil) {
  const auto build = [](Simulator& sim) {
    sim.ScheduleAt(0, [&sim] { sim.cpu().EnterIdle(sim.Now()); });
    sim.ScheduleAt(10 * kMicrosecond, [] {});
  };
  Simulator a(1);
  build(a);
  a.Run();
  Simulator b(1);
  build(b);
  b.RunUntil(10 * kMicrosecond);
  // Run() used to exit without Cpu::Finish, silently dropping the open
  // idle period that RunUntil() accounted for.
  EXPECT_EQ(a.cpu().idle_time(), 10 * kMicrosecond);
  EXPECT_EQ(a.cpu().idle_time(), b.cpu().idle_time());
}

TEST(SimulatorTest, ProbeClockAutoUninstallsOnDestruction) {
  {
    Simulator sim(7);
    InstallSimProbeClock(&sim);
    sim.ScheduleAfter(5, [] {});
    sim.Run();
    EXPECT_EQ(obs::ProbeClockNow(), 5u);
  }
  // The destructor must restore the default clock; before the fix the
  // probe clock kept reading the destroyed simulator (a use-after-free
  // under ASan).
  EXPECT_EQ(obs::internal::g_probe_clock, &obs::WallCycleClock);
  (void)obs::ProbeClockNow();
}

TEST(SimulatorObsTest, QueueDepthHwmIsPerInstance) {
  Simulator::Options a;
  a.stats_label = "hwm_test_a";
  Simulator sa(a);
  sa.ScheduleAfter(1, [] {});
  sa.ScheduleAfter(2, [] {});
  sa.ScheduleAfter(3, [] {});
  Simulator::Options b;
  b.stats_label = "hwm_test_b";
  Simulator sb(b);
  sb.ScheduleAfter(1, [] {});
  const obs::MetricsSnapshot snap = obs::Registry::Global().TakeSnapshot();
  const obs::SnapshotEntry* ga =
      snap.Find("sim_event_queue_depth_hwm", {{"cpu", "0"}, {"sim", "hwm_test_a"}});
  const obs::SnapshotEntry* gb =
      snap.Find("sim_event_queue_depth_hwm", {{"cpu", "0"}, {"sim", "hwm_test_b"}});
  ASSERT_NE(ga, nullptr);
  ASSERT_NE(gb, nullptr);
  // One process-global high-water mark would report max(3, 1) for both.
  EXPECT_EQ(ga->value, 3);
  EXPECT_EQ(gb->value, 1);
}

TEST(SimulatorObsTest, QueueDepthHwmRebaselinesAcrossInstances) {
  Simulator::Options options;
  options.stats_label = "hwm_test_rebase";
  {
    Simulator deep(options);
    for (int i = 1; i <= 5; ++i) {
      deep.ScheduleAfter(i, [] {});
    }
    deep.Run();
  }
  Simulator shallow(options);
  shallow.ScheduleAfter(1, [] {});
  shallow.ScheduleAfter(2, [] {});
  const obs::MetricsSnapshot snap = obs::Registry::Global().TakeSnapshot();
  const obs::SnapshotEntry* gauge = snap.Find(
      "sim_event_queue_depth_hwm", {{"cpu", "0"}, {"sim", "hwm_test_rebase"}});
  ASSERT_NE(gauge, nullptr);
  // A Max-only process gauge would still read the first simulator's 5.
  EXPECT_EQ(gauge->value, 2);
}

TEST(SimulatorObsTest, EmptyStatsLabelSuppressesInstruments) {
  Simulator::Options options;
  options.seed = 3;
  options.stats_label = "";
  Simulator sim(options);
  sim.ScheduleAfter(1, [] {});
  sim.Run();
  EXPECT_EQ(sim.events_executed(), 1u);
  const obs::MetricsSnapshot snap = obs::Registry::Global().TakeSnapshot();
  EXPECT_EQ(snap.Find("sim_events_executed", {{"cpu", "0"}, {"sim", ""}}), nullptr);
}

}  // namespace
}  // namespace tempo

// Tests for the timer-queue data structures, including cross-implementation
// equivalence property tests (every implementation must fire the same
// timers, up to its tick granularity).

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <list>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/sim/random.h"
#include "src/timer/hashed_wheel.h"
#include "src/timer/heap_queue.h"
#include "src/timer/hierarchical_wheel.h"
#include "src/timer/lawn.h"
#include "src/timer/queue.h"
#include "src/timer/tree_queue.h"

namespace tempo {
namespace {

// Default 1 ms granularity for the quantising structures (both wheels and
// the lawn); the exact structures (heap, tree) have none.
SimDuration GranularityOf(const std::string& name) {
  if (name == "heap" || name == "tree") {
    return 0;
  }
  return kMillisecond;
}

class TimerQueueTest : public ::testing::TestWithParam<std::string> {
 protected:
  std::unique_ptr<TimerQueue> Make() {
    TimerQueueOptions options;
    options.name = GetParam();
    return MakeTimerQueue(options);
  }
  SimDuration Granularity() const { return GranularityOf(GetParam()); }
};

TEST_P(TimerQueueTest, FactoryProducesCorrectName) {
  auto queue = Make();
  ASSERT_NE(queue, nullptr);
  EXPECT_EQ(queue->Name(), GetParam());
}

TEST_P(TimerQueueTest, FiresAtOrAfterExpiry) {
  auto queue = Make();
  SimTime fired_at = -1;
  queue->Schedule(10 * kMillisecond, [&](TimerHandle) { fired_at = 10 * kMillisecond; });
  EXPECT_EQ(queue->Advance(9 * kMillisecond), 0u);
  EXPECT_EQ(queue->Advance(20 * kMillisecond), 1u);
  EXPECT_EQ(fired_at, 10 * kMillisecond);
}

TEST_P(TimerQueueTest, NeverFiresEarly) {
  auto queue = Make();
  bool fired = false;
  queue->Schedule(10 * kMillisecond, [&](TimerHandle) { fired = true; });
  queue->Advance(10 * kMillisecond - 1 - Granularity());
  EXPECT_FALSE(fired);
}

TEST_P(TimerQueueTest, CancelPreventsFiring) {
  auto queue = Make();
  bool fired = false;
  const TimerHandle h = queue->Schedule(5 * kMillisecond, [&](TimerHandle) { fired = true; });
  EXPECT_TRUE(queue->Cancel(h));
  EXPECT_EQ(queue->Advance(kSecond), 0u);
  EXPECT_FALSE(fired);
  EXPECT_EQ(queue->Size(), 0u);
}

TEST_P(TimerQueueTest, CancelAfterFireFails) {
  auto queue = Make();
  const TimerHandle h = queue->Schedule(kMillisecond, [](TimerHandle) {});
  queue->Advance(kSecond);
  EXPECT_FALSE(queue->Cancel(h));
}

TEST_P(TimerQueueTest, CancelUnknownFails) {
  auto queue = Make();
  EXPECT_FALSE(queue->Cancel(12345));
}

TEST_P(TimerQueueTest, PastExpiryFiresOnNextAdvance) {
  auto queue = Make();
  queue->Advance(kSecond);
  bool fired = false;
  queue->Schedule(kMillisecond, [&](TimerHandle) { fired = true; });  // in the past
  queue->Advance(kSecond + 10 * kMillisecond);
  EXPECT_TRUE(fired);
}

TEST_P(TimerQueueTest, SizeTracksPending) {
  auto queue = Make();
  queue->Schedule(kMillisecond, [](TimerHandle) {});
  const TimerHandle h = queue->Schedule(2 * kMillisecond, [](TimerHandle) {});
  queue->Schedule(kSecond, [](TimerHandle) {});
  EXPECT_EQ(queue->Size(), 3u);
  queue->Cancel(h);
  EXPECT_EQ(queue->Size(), 2u);
  queue->Advance(10 * kMillisecond);
  EXPECT_EQ(queue->Size(), 1u);
}

TEST_P(TimerQueueTest, NextExpiryReportsEarliestPending) {
  auto queue = Make();
  EXPECT_EQ(queue->NextExpiry(), kNeverTime);
  queue->Schedule(50 * kMillisecond, [](TimerHandle) {});
  const TimerHandle h = queue->Schedule(20 * kMillisecond, [](TimerHandle) {});
  SimTime next = queue->NextExpiry();
  EXPECT_GE(next, 20 * kMillisecond - Granularity());
  EXPECT_LE(next, 20 * kMillisecond + Granularity());
  queue->Cancel(h);
  next = queue->NextExpiry();
  EXPECT_GE(next, 50 * kMillisecond - Granularity());
  EXPECT_LE(next, 50 * kMillisecond + Granularity());
}

TEST_P(TimerQueueTest, CallbackReceivesOwnHandle) {
  auto queue = Make();
  TimerHandle seen = kInvalidTimerHandle;
  const TimerHandle h = queue->Schedule(kMillisecond, [&](TimerHandle fired) { seen = fired; });
  queue->Advance(kSecond);
  EXPECT_EQ(seen, h);
}

TEST_P(TimerQueueTest, CallbackMaySchedule) {
  auto queue = Make();
  int fired = 0;
  TimerQueue* q = queue.get();
  queue->Schedule(kMillisecond, [&fired, q](TimerHandle) {
    ++fired;
    q->Schedule(2 * kMillisecond, [&fired](TimerHandle) { ++fired; });
  });
  queue->Advance(10 * kMillisecond);
  // The nested expiry is already past; the contract guarantees it fires on
  // the next Advance (quantising backends may push it one tick ahead of
  // the advance that scheduled it).
  queue->Advance(10 * kMillisecond + Granularity());
  EXPECT_EQ(fired, 2);
}

TEST_P(TimerQueueTest, CallbackMayCancelSiblingDueSameInstant) {
  auto queue = Make();
  int fired = 0;
  TimerQueue* q = queue.get();
  TimerHandle sibling = kInvalidTimerHandle;
  queue->Schedule(kMillisecond, [&](TimerHandle) {
    ++fired;
    q->Cancel(sibling);  // may or may not succeed; must not corrupt
  });
  sibling = queue->Schedule(kMillisecond, [&](TimerHandle) { ++fired; });
  queue->Schedule(5 * kMillisecond, [&](TimerHandle) { ++fired; });
  queue->Advance(kSecond);
  // The sibling may already have been detached for firing; either way the
  // later timer must still fire and nothing may crash.
  EXPECT_GE(fired, 2);
  EXPECT_EQ(queue->Size(), 0u);
}

TEST_P(TimerQueueTest, LongDelaysSupported) {
  auto queue = Make();
  bool fired = false;
  queue->Schedule(7200 * kSecond, [&](TimerHandle) { fired = true; });
  queue->Advance(7199 * kSecond);
  EXPECT_FALSE(fired);
  queue->Advance(7201 * kSecond);
  EXPECT_TRUE(fired);
}

TEST_P(TimerQueueTest, ManyTimersSameExpiryAllFire) {
  auto queue = Make();
  int fired = 0;
  for (int i = 0; i < 1000; ++i) {
    queue->Schedule(kMillisecond * 7, [&](TimerHandle) { ++fired; });
  }
  queue->Advance(kSecond);
  EXPECT_EQ(fired, 1000);
}

// Property test: randomized schedule/reschedule/cancel/advance against a
// reference model, seeded through the batch entry point. Every
// implementation must fire exactly the timers the model fires, within its
// granularity window of the requested expiry.
class TimerQueueFuzzTest
    : public ::testing::TestWithParam<std::tuple<std::string, uint64_t>> {};

TEST_P(TimerQueueFuzzTest, MatchesReferenceModel) {
  const auto& [name, seed] = GetParam();
  TimerQueueOptions options;
  options.name = name;
  auto queue = MakeTimerQueue(options);
  const SimDuration granularity = GranularityOf(name);
  Rng rng(seed);

  struct ModelEntry {
    SimTime expiry;
    bool fired = false;
    bool canceled = false;
  };
  std::map<TimerHandle, ModelEntry> model;
  std::map<TimerHandle, SimTime> fired_at;
  SimTime now = 0;
  const auto record = [&fired_at, &now](TimerHandle handle) {
    fired_at[handle] = now;
  };

  // Seed the population through ScheduleBatch: the batch path must mint
  // handles indistinguishable from per-call Schedule.
  std::vector<TimerBatchEntry> batch(64);
  for (auto& entry : batch) {
    entry.expiry = now + rng.UniformInt(0, 200 * kMillisecond);
  }
  queue->ScheduleBatch(batch, record);
  for (const auto& entry : batch) {
    ASSERT_NE(entry.handle, kInvalidTimerHandle);
    model.emplace(entry.handle, ModelEntry{entry.expiry});
  }
  ASSERT_EQ(queue->Size(), batch.size());

  for (int step = 0; step < 4000; ++step) {
    const double roll = rng.NextDouble();
    if (roll < 0.40) {
      const SimTime expiry = now + rng.UniformInt(0, 200 * kMillisecond);
      const TimerHandle h = queue->Schedule(expiry, record);
      model.emplace(h, ModelEntry{expiry});
    } else if (roll < 0.60 && !model.empty()) {
      // Reschedule a random entry; succeeds iff it is still pending, and
      // the handle must stay stable. Within the quantisation window
      // (expiry <= now < expiry + granularity) the queue may already have
      // fired an entry the model still counts live — either outcome is
      // legal there.
      auto it = model.begin();
      std::advance(it, rng.UniformInt(0, static_cast<int64_t>(model.size()) - 1));
      const bool live = !it->second.fired && !it->second.canceled;
      const bool grey = live && it->second.expiry <= now;
      const SimTime expiry = now + rng.UniformInt(0, 200 * kMillisecond);
      const TimerHandle got = queue->Reschedule(it->first, expiry);
      if (got != kInvalidTimerHandle) {
        EXPECT_TRUE(live) << "rescheduled a dead handle " << it->first;
        EXPECT_EQ(got, it->first) << "reschedule minted a new handle";
        it->second.expiry = expiry;
      } else if (live) {
        EXPECT_TRUE(grey) << "reschedule lost a live handle " << it->first;
        it->second.fired = true;
      }
    } else if (roll < 0.75 && !model.empty()) {
      // Cancel a random entry, with the same quantisation-window tolerance.
      auto it = model.begin();
      std::advance(it, rng.UniformInt(0, static_cast<int64_t>(model.size()) - 1));
      const bool live = !it->second.fired && !it->second.canceled;
      const bool grey = live && it->second.expiry <= now;
      const bool got = queue->Cancel(it->first);
      if (got) {
        EXPECT_TRUE(live) << "canceled a dead handle " << it->first;
        it->second.canceled = true;
      } else if (live) {
        EXPECT_TRUE(grey) << "cancel lost a live handle " << it->first;
        it->second.fired = true;
      }
    } else {
      now += rng.UniformInt(0, 50 * kMillisecond);
      queue->Advance(now);
      for (auto& [handle, entry] : model) {
        if (!entry.fired && !entry.canceled && entry.expiry + granularity <= now) {
          entry.fired = true;  // must have fired by now
        }
      }
    }
  }
  now += 200 * kMillisecond + kSecond;  // beyond every scheduled expiry
  queue->Advance(now);
  for (auto& [handle, entry] : model) {
    if (!entry.canceled) {
      entry.fired = true;
    }
  }

  // Verify: all model-fired handles actually fired, none of the canceled
  // ones did, and nothing fired before its expiry.
  size_t fired_count = 0;
  for (const auto& [handle, entry] : model) {
    if (entry.canceled) {
      EXPECT_EQ(fired_at.count(handle), 0u) << "canceled timer fired";
    } else {
      ASSERT_EQ(fired_at.count(handle), 1u) << "timer never fired";
      EXPECT_GE(fired_at[handle] + granularity, entry.expiry) << "fired early";
      ++fired_count;
    }
  }
  EXPECT_GT(fired_count, 0u);
  EXPECT_EQ(queue->Size(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllImplsManySeeds, TimerQueueFuzzTest,
    ::testing::Combine(::testing::ValuesIn(TimerQueueNames()),
                       ::testing::Values(1u, 2u, 3u, 5u, 8u)));

INSTANTIATE_TEST_SUITE_P(AllImpls, TimerQueueTest,
                         ::testing::ValuesIn(TimerQueueNames()));

TEST(TimerQueueFactoryTest, UnknownNameReturnsNull) {
  TimerQueueOptions options;
  options.name = "no_such_queue";
  EXPECT_EQ(MakeTimerQueue(options), nullptr);
}

TEST(TimerQueueFactoryTest, NamesListMatchesFactory) {
  for (const std::string& name : TimerQueueNames()) {
    TimerQueueOptions options;
    options.name = name;
    auto queue = MakeTimerQueue(options);
    ASSERT_NE(queue, nullptr) << name;
    EXPECT_EQ(queue->Name(), name);
  }
}

// --- v2 API surface, every backend ---

TEST_P(TimerQueueTest, ReschedulePushesExpiryOut) {
  auto queue = Make();
  SimTime fired_at = -1;
  SimTime now = 0;
  const TimerHandle h =
      queue->Schedule(10 * kMillisecond, [&](TimerHandle) { fired_at = now; });
  EXPECT_EQ(queue->Reschedule(h, 50 * kMillisecond), h);
  now = 20 * kMillisecond;
  queue->Advance(now);
  EXPECT_EQ(fired_at, -1) << "fired at the old expiry after reschedule";
  now = 60 * kMillisecond;
  queue->Advance(now);
  EXPECT_EQ(fired_at, 60 * kMillisecond);
  EXPECT_EQ(queue->Size(), 0u);
}

TEST_P(TimerQueueTest, ReschedulePullsExpiryIn) {
  auto queue = Make();
  bool fired = false;
  const TimerHandle h =
      queue->Schedule(kSecond, [&](TimerHandle) { fired = true; });
  EXPECT_EQ(queue->Reschedule(h, 5 * kMillisecond), h);
  queue->Advance(10 * kMillisecond);
  EXPECT_TRUE(fired);
}

TEST_P(TimerQueueTest, RescheduleDeadHandleFails) {
  auto queue = Make();
  const TimerHandle h = queue->Schedule(kMillisecond, [](TimerHandle) {});
  queue->Advance(kSecond);
  EXPECT_EQ(queue->Reschedule(h, 2 * kSecond), kInvalidTimerHandle);
  const TimerHandle h2 = queue->Schedule(kMillisecond, [](TimerHandle) {});
  ASSERT_TRUE(queue->Cancel(h2));
  EXPECT_EQ(queue->Reschedule(h2, 2 * kSecond), kInvalidTimerHandle);
  EXPECT_EQ(queue->Reschedule(kInvalidTimerHandle, kSecond), kInvalidTimerHandle);
  EXPECT_EQ(queue->Size(), 0u);
}

TEST_P(TimerQueueTest, RescheduleKeepsCallback) {
  auto queue = Make();
  int fired = 0;
  const TimerHandle h =
      queue->Schedule(5 * kMillisecond, [&](TimerHandle) { ++fired; });
  for (int i = 0; i < 5; ++i) {
    ASSERT_EQ(queue->Reschedule(h, (10 + i) * kMillisecond), h);
  }
  queue->Advance(kSecond);
  EXPECT_EQ(fired, 1) << "callback lost or duplicated across reschedules";
}

TEST_P(TimerQueueTest, ScheduleBatchMintsLiveHandles) {
  auto queue = Make();
  int fired = 0;
  std::vector<TimerBatchEntry> entries(100);
  for (size_t i = 0; i < entries.size(); ++i) {
    entries[i].expiry = static_cast<SimTime>(i + 1) * kMillisecond;
  }
  queue->ScheduleBatch(entries, [&](TimerHandle) { ++fired; });
  EXPECT_EQ(queue->Size(), entries.size());
  std::set<TimerHandle> unique;
  for (const auto& entry : entries) {
    EXPECT_NE(entry.handle, kInvalidTimerHandle);
    unique.insert(entry.handle);
  }
  EXPECT_EQ(unique.size(), entries.size()) << "batch minted duplicate handles";
  // Batch-minted handles cancel and reschedule like any other.
  EXPECT_TRUE(queue->Cancel(entries[0].handle));
  EXPECT_EQ(queue->Reschedule(entries[1].handle, kSecond), entries[1].handle);
  queue->Advance(2 * kSecond);
  EXPECT_EQ(fired, static_cast<int>(entries.size()) - 1);
  EXPECT_EQ(queue->Size(), 0u);
}

TEST_P(TimerQueueTest, CancelBatchCountsOnlyLive) {
  auto queue = Make();
  std::vector<TimerBatchEntry> entries(10);
  for (size_t i = 0; i < entries.size(); ++i) {
    entries[i].expiry = kSecond + static_cast<SimTime>(i) * kMillisecond;
  }
  queue->ScheduleBatch(entries, [](TimerHandle) {});
  std::vector<TimerHandle> handles;
  for (const auto& entry : entries) {
    handles.push_back(entry.handle);
  }
  handles.push_back(kInvalidTimerHandle);  // skipped, not an error
  handles.push_back(entries[0].handle);    // duplicate: dead on second visit
  EXPECT_EQ(queue->CancelBatch(handles), entries.size());
  EXPECT_EQ(queue->Size(), 0u);
  EXPECT_EQ(queue->CancelBatch(handles), 0u);
}

TEST_P(TimerQueueTest, MemoryBytesTracksPopulation) {
  auto queue = Make();
  const size_t empty_bytes = queue->MemoryBytes();
  std::vector<TimerBatchEntry> entries(1000);
  for (size_t i = 0; i < entries.size(); ++i) {
    entries[i].expiry = static_cast<SimTime>(i + 1) * kMillisecond;
  }
  queue->ScheduleBatch(entries, [](TimerHandle) {});
  const size_t loaded_bytes = queue->MemoryBytes();
  EXPECT_GT(loaded_bytes, empty_bytes);
  // At least a node's worth per pending timer, and not wildly more than a
  // few cache lines each.
  EXPECT_GE(loaded_bytes - empty_bytes, entries.size() * sizeof(SimTime));
  EXPECT_LE(loaded_bytes / entries.size(), 4096u);
}

// --- the monotonic Advance contract ---

TEST_P(TimerQueueTest, BackwardsAdvanceIsHandled) {
  auto queue = Make();
  bool fired = false;
  queue->Schedule(30 * kMillisecond, [&](TimerHandle) { fired = true; });
  EXPECT_EQ(queue->Advance(20 * kMillisecond), 0u);
  EXPECT_EQ(queue->advance_watermark(), 20 * kMillisecond);
  EXPECT_EQ(queue->backwards_advances(), 0u);
  // Every build clamps to the high-water mark and counts the violation;
  // the wheel state must stay intact and the timer must still fire on time.
  EXPECT_EQ(queue->Advance(10 * kMillisecond), 0u);
  EXPECT_EQ(queue->backwards_advances(), 1u);
  EXPECT_EQ(queue->advance_watermark(), 20 * kMillisecond);
  EXPECT_FALSE(fired);
  queue->Advance(40 * kMillisecond);
  EXPECT_TRUE(fired);
  EXPECT_EQ(queue->backwards_advances(), 1u);
}

// --- lawn-specific behaviour ---

TEST(LawnTest, BucketsPerDistinctTtl) {
  LawnTimerQueue lawn;
  EXPECT_EQ(lawn.ttl_buckets(), 0u);
  // The paper's observation: many timers, few distinct timeout values.
  for (int i = 0; i < 100; ++i) {
    lawn.Schedule(30 * kSecond, [](TimerHandle) {});
    lawn.Schedule(75 * kSecond, [](TimerHandle) {});
    lawn.Schedule(200 * kMillisecond, [](TimerHandle) {});
  }
  EXPECT_EQ(lawn.Size(), 300u);
  EXPECT_EQ(lawn.ttl_buckets(), 3u);
}

TEST(LawnTest, QuantisesToAtLeastOneTick) {
  LawnTimerQueue lawn(kMillisecond);
  bool fired = false;
  // Zero (and past) TTLs round up to one tick: never fire within this
  // Advance, always on the next tick boundary.
  lawn.Schedule(0, [&](TimerHandle) { fired = true; });
  EXPECT_EQ(lawn.NextExpiry(), kMillisecond);
  lawn.Advance(kMillisecond - 1);
  EXPECT_FALSE(fired);
  lawn.Advance(kMillisecond);
  EXPECT_TRUE(fired);
}

TEST(LawnTest, FifoWithinTtlFiresInScheduleOrder) {
  LawnTimerQueue lawn;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    lawn.Schedule(kSecond, [&order, i](TimerHandle) { order.push_back(i); });
  }
  lawn.Advance(2 * kSecond);
  ASSERT_EQ(order.size(), 10u);
  EXPECT_TRUE(std::is_sorted(order.begin(), order.end()))
      << "same-TTL timers must fire in schedule (FIFO) order";
}

// Implementation-specific behaviour.

TEST(HierarchicalWheelTest, CascadesLongTimers) {
  HierarchicalWheelTimerQueue wheel(kMillisecond);
  bool fired = false;
  // 300 ticks out: lives in level 1 and must cascade into level 0.
  wheel.Schedule(300 * kMillisecond, [&](TimerHandle) { fired = true; });
  wheel.Advance(299 * kMillisecond);
  EXPECT_FALSE(fired);
  EXPECT_GT(wheel.cascades(), 0u);
  wheel.Advance(301 * kMillisecond);
  EXPECT_TRUE(fired);
}

TEST(HierarchicalWheelTest, ClampsBeyondHorizon) {
  HierarchicalWheelTimerQueue wheel(kMillisecond);
  bool fired = false;
  // Far beyond level 3's 2^26-tick horizon: clamped, fires at the horizon.
  wheel.Schedule(static_cast<SimTime>(1) << 40, [&](TimerHandle) { fired = true; });
  wheel.Advance((1u << 26) * kMillisecond);
  EXPECT_TRUE(fired);
}

TEST(HashedWheelTest, SkipsOtherRevolutions) {
  HashedWheelTimerQueue wheel(kMillisecond, 16);
  int fired = 0;
  // Two timers in the same slot, one revolution apart.
  wheel.Schedule(5 * kMillisecond, [&](TimerHandle) { ++fired; });
  wheel.Schedule(21 * kMillisecond, [&](TimerHandle) { ++fired; });
  wheel.Advance(10 * kMillisecond);
  EXPECT_EQ(fired, 1);
  wheel.Advance(30 * kMillisecond);
  EXPECT_EQ(fired, 2);
  EXPECT_GT(wheel.entries_examined(), 0u);
}

// --- cached NextExpiry regression (vs the reference full scan) ---

// Randomized op sequence asserting the incrementally maintained minimum is
// always byte-identical to the naive scan the seed implementation used.
template <typename Wheel>
void RunNextExpiryCacheRegression(Wheel* wheel, uint64_t seed) {
  Rng rng(seed);
  std::vector<TimerHandle> live;
  SimTime now = 0;
  ASSERT_EQ(wheel->NextExpiry(), kNeverTime);
  for (int step = 0; step < 3000; ++step) {
    const double roll = rng.NextDouble();
    if (roll < 0.5) {
      live.push_back(wheel->Schedule(now + rng.UniformInt(0, 400 * kMillisecond),
                                     [](TimerHandle) {}));
    } else if (roll < 0.8 && !live.empty()) {
      const size_t victim =
          static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(live.size()) - 1));
      wheel->Cancel(live[victim]);
      live[victim] = live.back();
      live.pop_back();
    } else {
      now += rng.UniformInt(0, 30 * kMillisecond);
      wheel->Advance(now);
    }
    ASSERT_EQ(wheel->NextExpiry(), wheel->NextExpiryScan()) << "step " << step;
  }
  // Cancel-of-minimum and fire-of-minimum paths must have forced rescans,
  // or the cache was never actually exercised.
  EXPECT_GT(wheel->next_expiry_scans(), 0u);
}

TEST(HierarchicalWheelTest, NextExpiryCacheMatchesReferenceScan) {
  for (uint64_t seed : {1u, 2u, 3u}) {
    HierarchicalWheelTimerQueue wheel(kMillisecond);
    RunNextExpiryCacheRegression(&wheel, seed);
  }
}

TEST(HashedWheelTest, NextExpiryCacheMatchesReferenceScan) {
  for (uint64_t seed : {1u, 2u, 3u}) {
    HashedWheelTimerQueue wheel(kMillisecond, 64);
    RunNextExpiryCacheRegression(&wheel, seed);
  }
}

TEST(HierarchicalWheelTest, NextExpiryCachedBetweenQueries) {
  HierarchicalWheelTimerQueue wheel(kMillisecond);
  for (int i = 0; i < 1000; ++i) {
    wheel.Schedule((10 + i) * kMillisecond, [](TimerHandle) {});
  }
  const SimTime first = wheel.NextExpiry();
  const uint64_t scans = wheel.next_expiry_scans();
  // Repeated queries (the dynticks reprogram pattern) and later-than-min
  // schedules must not rescan.
  for (int i = 0; i < 100; ++i) {
    ASSERT_EQ(wheel.NextExpiry(), first);
    wheel.Schedule(kSecond + i * kMillisecond, [](TimerHandle) {});
  }
  EXPECT_EQ(wheel.next_expiry_scans(), scans);
}

// --- cascade boundaries ---

// A timer landing exactly at a level horizon must sit in the next level up
// and still fire on time once cascaded down.
TEST(HierarchicalWheelTest, TimerAtExactLevelHorizonFiresOnTime) {
  // Horizons (in ticks) of levels 0..2, as laid out in the .cc tables.
  for (const uint64_t horizon : {uint64_t{1} << 8, uint64_t{1} << 14, uint64_t{1} << 20}) {
    HierarchicalWheelTimerQueue wheel(kMillisecond);
    const SimTime expiry = static_cast<SimTime>(horizon) * kMillisecond;
    SimTime fired_at = -1;
    SimTime now = 0;
    wheel.Schedule(expiry, [&](TimerHandle) { fired_at = now; });
    now = expiry - kMillisecond;
    wheel.Advance(now);
    EXPECT_EQ(fired_at, -1) << "fired early at horizon " << horizon;
    EXPECT_EQ(wheel.Size(), 1u);
    now = expiry;
    wheel.Advance(now);
    EXPECT_EQ(fired_at, expiry) << "late/no fire at horizon " << horizon;
    EXPECT_EQ(wheel.Size(), 0u);
    EXPECT_EQ(wheel.NextExpiry(), kNeverTime);
  }
}

// A timer whose slot cascades on the very tick it becomes due must fire on
// that same tick, not a revolution later.
TEST(HierarchicalWheelTest, CascadeOnDueTickFiresSameTick) {
  HierarchicalWheelTimerQueue wheel(kMillisecond);
  // Tick 512 = 2 * 256: level-0 hand wraps exactly when it becomes due, so
  // the entry cascades from level 1 and fires within the same RunTick.
  const SimTime expiry = 512 * kMillisecond;
  SimTime fired_at = -1;
  SimTime now = 0;
  wheel.Schedule(expiry, [&](TimerHandle) { fired_at = now; });
  now = expiry - kMillisecond;
  wheel.Advance(now);
  EXPECT_EQ(fired_at, -1);
  now = expiry;
  wheel.Advance(now);
  EXPECT_EQ(fired_at, expiry);
  EXPECT_GT(wheel.cascades(), 0u);
}

// After cascades and fires, the handle index must stay consistent with
// size_: every live handle cancels exactly once, then the wheel is empty.
TEST(HierarchicalWheelTest, IndexStaysConsistentWithSizeAcrossCascades) {
  HierarchicalWheelTimerQueue wheel(kMillisecond);
  Rng rng(17);
  std::map<TimerHandle, SimTime> live;
  int fired = 0;
  for (int i = 0; i < 500; ++i) {
    // Mix of horizons, deliberately including exact cascade boundaries.
    const SimTime expiry = (i % 7 == 0)
                               ? (256 + 256 * (i % 3)) * kMillisecond
                               : rng.UniformInt(kMillisecond, 3000 * kMillisecond);
    const TimerHandle h = wheel.Schedule(expiry, [&fired](TimerHandle) { ++fired; });
    live[h] = expiry;
  }
  wheel.Advance(700 * kMillisecond);  // past two cascade points
  EXPECT_EQ(wheel.Size(), live.size() - static_cast<size_t>(fired));
  size_t canceled = 0;
  for (const auto& [handle, expiry] : live) {
    if (expiry > 700 * kMillisecond + kMillisecond) {
      // Still pending: the index must know it, exactly once.
      EXPECT_TRUE(wheel.Cancel(handle)) << "live handle missing from index";
      EXPECT_FALSE(wheel.Cancel(handle));
      ++canceled;
    }
  }
  EXPECT_EQ(wheel.Size(), live.size() - static_cast<size_t>(fired) - canceled);
  wheel.Advance(4000 * kMillisecond);
  EXPECT_EQ(wheel.Size(), 0u);
  EXPECT_EQ(static_cast<size_t>(fired) + canceled, live.size());
  EXPECT_EQ(wheel.NextExpiry(), kNeverTime);
}

// --- differential test against the list-and-hash wheel ---

// The hierarchical wheel as it was before its slab rewrite: std::list slots
// appended in FIFO order, an unordered_map from handle to list position,
// and a full scan for the next expiry. Same level layout, rounding, clamp
// and detach-before-callbacks rule; no cache and no instruments. It is the
// oracle for MatchesReferenceWheel.
class ReferenceWheel : public TimerQueue {
 public:
  explicit ReferenceWheel(SimDuration granularity) : granularity_(granularity) {
    levels_[0].resize(kL0Slots);
    for (int level = 1; level < kLevels; ++level) {
      levels_[level].resize(kLnSlots);
    }
  }

  TimerHandle Schedule(SimTime expiry, TimerQueueCallback cb) override {
    const TimerHandle handle = next_handle_++;
    Place(Node{TickFor(expiry), handle, std::move(cb)});
    ++size_;
    return handle;
  }

  bool Cancel(TimerHandle handle) override {
    auto it = index_.find(handle);
    if (it == index_.end()) {
      return false;
    }
    levels_[it->second.level][it->second.slot].erase(it->second.it);
    index_.erase(it);
    --size_;
    return true;
  }

  TimerHandle Reschedule(TimerHandle handle, SimTime new_expiry) override {
    auto it = index_.find(handle);
    if (it == index_.end()) {
      return kInvalidTimerHandle;
    }
    const Location loc = it->second;
    Node node = std::move(*loc.it);
    levels_[loc.level][loc.slot].erase(loc.it);
    node.tick = TickFor(new_expiry);
    Place(std::move(node));
    return handle;
  }

  size_t Size() const override { return size_; }

  SimTime NextExpiry() const override {
    uint64_t best = UINT64_MAX;
    for (const auto& level : levels_) {
      for (const Slot& slot : level) {
        for (const Node& node : slot) {
          best = std::min(best, node.tick);
        }
      }
    }
    return best == UINT64_MAX ? kNeverTime
                              : static_cast<SimTime>(best) * granularity_;
  }

  size_t MemoryBytes() const override { return 0; }
  std::string Name() const override { return "reference_wheel"; }

 protected:
  size_t AdvanceTo(SimTime now) override {
    const uint64_t target = static_cast<uint64_t>(now / granularity_);
    size_t fired = 0;
    while (current_tick_ < target) {
      fired += RunTick();
    }
    return fired;
  }

 private:
  static constexpr int kLevels = 4;
  static constexpr size_t kL0Slots = 256;
  static constexpr size_t kLnSlots = 64;
  static constexpr int kShift[kLevels] = {0, 8, 14, 20};
  static constexpr uint64_t kHorizon[kLevels] = {1ull << 8, 1ull << 14, 1ull << 20,
                                                 1ull << 26};

  struct Node {
    uint64_t tick;
    TimerHandle handle;
    TimerQueueCallback cb;
  };
  using Slot = std::list<Node>;
  struct Location {
    int level;
    size_t slot;
    Slot::iterator it;
  };

  uint64_t TickFor(SimTime expiry) const {
    const uint64_t g = static_cast<uint64_t>(granularity_);
    const uint64_t tick = (static_cast<uint64_t>(std::max<SimTime>(expiry, 0)) + g - 1) / g;
    return std::max(tick, current_tick_ + 1);
  }

  void Place(Node node) {
    const uint64_t delta = node.tick > current_tick_ ? node.tick - current_tick_ : 0;
    int level = 0;
    while (level < kLevels - 1 && delta >= kHorizon[level]) {
      ++level;
    }
    if (delta >= kHorizon[kLevels - 1]) {
      node.tick = current_tick_ + kHorizon[kLevels - 1] - 1;
    }
    const size_t slot = static_cast<size_t>((node.tick >> kShift[level]) &
                                            (level == 0 ? kL0Slots - 1 : kLnSlots - 1));
    Slot& list = levels_[level][slot];
    list.push_back(std::move(node));
    index_[list.back().handle] = Location{level, slot, std::prev(list.end())};
  }

  size_t RunTick() {
    ++current_tick_;
    const size_t idx = static_cast<size_t>(current_tick_ & (kL0Slots - 1));
    if (idx == 0) {
      for (int level = 1; level < kLevels; ++level) {
        const size_t lslot =
            static_cast<size_t>((current_tick_ >> kShift[level]) & (kLnSlots - 1));
        Slot moved;
        moved.swap(levels_[level][lslot]);
        for (Node& node : moved) {
          index_.erase(node.handle);
          Place(std::move(node));
        }
        if (lslot != 0) {
          break;
        }
      }
    }
    Slot due;
    due.swap(levels_[0][idx]);
    for (const Node& node : due) {
      index_.erase(node.handle);
    }
    size_ -= due.size();
    for (Node& node : due) {
      node.cb(node.handle);
    }
    return due.size();
  }

  SimDuration granularity_;
  std::array<std::vector<Slot>, kLevels> levels_;
  std::unordered_map<TimerHandle, Location> index_;
  uint64_t current_tick_ = 0;
  size_t size_ = 0;
  TimerHandle next_handle_ = 1;
};

// One observable outcome, named by the logical timer id both sides share.
struct WheelEvent {
  char op;  // 'F' fired, 'C' cancel, 'R' reschedule, 'A' advance, 'N' next expiry
  int64_t id;
  int64_t value;
  bool operator==(const WheelEvent&) const = default;
};

// Drives one wheel through logical timer ids. Every fire, every Cancel and
// Reschedule result (also those made by callbacks while a tick fires) and
// every Advance count goes into `log` in terms of ids, so two wheels behave
// alike exactly when their logs are equal. Handles of dead timers are kept
// and reused as arguments, so stale handles are exercised throughout.
template <typename Wheel>
class LoggedWheel {
 public:
  explicit LoggedWheel(uint64_t seed) : rng_(seed) {}

  void Schedule(SimTime expiry) {
    const int64_t id = static_cast<int64_t>(handles_.size());
    handles_.push_back(kInvalidTimerHandle);
    handles_[static_cast<size_t>(id)] =
        wheel_.Schedule(expiry, [this, id](TimerHandle h) { OnFire(id, h); });
  }
  void Cancel(int64_t id) {
    log_.push_back({'C', id, wheel_.Cancel(handles_[static_cast<size_t>(id)]) ? 1 : 0});
  }
  void Reschedule(int64_t id, SimTime expiry) {
    const TimerHandle h = handles_[static_cast<size_t>(id)];
    const TimerHandle got = wheel_.Reschedule(h, expiry);
    EXPECT_TRUE(got == kInvalidTimerHandle || got == h) << "reschedule minted a handle";
    log_.push_back({'R', id, got == h ? 1 : 0});
  }
  void Advance(SimTime now) {
    now_ = now;
    log_.push_back({'A', 0, static_cast<int64_t>(wheel_.Advance(now))});
  }

  Wheel& wheel() { return wheel_; }
  const std::vector<WheelEvent>& log() const { return log_; }
  int64_t timers() const { return static_cast<int64_t>(handles_.size()); }

 private:
  // Callback actions while a tick fires: re-arm (possibly due on the very
  // next tick), cancel or reschedule a neighbour id (bursts share an
  // expiry, so neighbours are often due on this same tick and already
  // detached), touch a random id, or read the next expiry mid-tick.
  void OnFire(int64_t id, TimerHandle h) {
    EXPECT_EQ(h, handles_[static_cast<size_t>(id)]) << "callback got another handle";
    log_.push_back({'F', id, now_});
    const double roll = rng_.NextDouble();
    const int64_t neighbour = rng_.NextDouble() < 0.5 ? id + 1 : id - 1;
    const int64_t any = rng_.UniformInt(0, timers() - 1);
    const SimTime soon = now_ + rng_.UniformInt(0, 40 * kMillisecond);
    if (roll < 0.25) {
      Schedule(soon);
    } else if (roll < 0.40 && neighbour >= 0 && neighbour < timers()) {
      Cancel(neighbour);
    } else if (roll < 0.55 && neighbour >= 0 && neighbour < timers()) {
      Reschedule(neighbour, soon);
    } else if (roll < 0.65) {
      Cancel(any);
    } else if (roll < 0.75) {
      Reschedule(any, soon);
    } else if (roll < 0.85) {
      log_.push_back({'N', id, wheel_.NextExpiry()});
    }
  }

  Wheel wheel_{kMillisecond};
  std::vector<TimerHandle> handles_;  // logical id -> this wheel's handle
  std::vector<WheelEvent> log_;
  Rng rng_;
  SimTime now_ = 0;
};

// Expiry offsets at every level's scale, and beyond the level-3 horizon
// (2^26 ticks) so the clamp is hit.
SimDuration DrawOffset(Rng& rng) {
  const double roll = rng.NextDouble();
  const int64_t ms = kMillisecond;
  if (roll < 0.50) return rng.UniformInt(0, 300 * ms);
  if (roll < 0.70) return rng.UniformInt(0, (int64_t{1} << 14) * ms);
  if (roll < 0.85) return rng.UniformInt(0, (int64_t{1} << 20) * ms);
  if (roll < 0.95) return rng.UniformInt(0, (int64_t{1} << 26) * ms);
  return rng.UniformInt(int64_t{1} << 26, int64_t{1} << 28) * ms;
}

TEST(HierarchicalWheelTest, MatchesReferenceWheel) {
  for (const uint64_t seed : {1u, 2u, 3u, 4u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    LoggedWheel<HierarchicalWheelTimerQueue> wheel(seed);
    LoggedWheel<ReferenceWheel> reference(seed);
    Rng rng(seed * 7919);
    SimTime now = 0;
    size_t checked = 0;
    for (int step = 0; step < 3000; ++step) {
      const double roll = rng.NextDouble();
      if (roll < 0.35) {
        // A burst of 1-4 timers sharing one expiry.
        const SimTime expiry = now + DrawOffset(rng);
        for (int64_t n = rng.UniformInt(1, 4); n > 0; --n) {
          wheel.Schedule(expiry);
          reference.Schedule(expiry);
        }
      } else if (roll < 0.50 && wheel.timers() > 0) {
        const int64_t id = rng.UniformInt(0, wheel.timers() - 1);
        const SimTime expiry = now + DrawOffset(rng);
        wheel.Reschedule(id, expiry);
        reference.Reschedule(id, expiry);
      } else if (roll < 0.65 && wheel.timers() > 0) {
        const int64_t id = rng.UniformInt(0, wheel.timers() - 1);
        wheel.Cancel(id);
        reference.Cancel(id);
      } else {
        // Mostly small steps; some cross 2^8-tick boundaries, some 2^14,
        // and a few jump to within two ticks of the next 2^14 or 2^20
        // boundary so the following steps cross it.
        const double step_roll = rng.NextDouble();
        const int64_t tick = now / kMillisecond;
        if (step_roll < 0.70) {
          now += rng.UniformInt(0, 20 * kMillisecond);
        } else if (step_roll < 0.90) {
          now += rng.UniformInt(0, 600 * kMillisecond);
        } else if (step_roll < 0.97) {
          now += rng.UniformInt(0, (int64_t{1} << 14) * kMillisecond);
        } else {
          const int shift = step_roll < 0.995 ? 14 : 20;
          const int64_t boundary = ((tick >> shift) + 1) << shift;
          now = std::max(now, (boundary + rng.UniformInt(-2, 2)) * kMillisecond);
        }
        wheel.Advance(now);
        reference.Advance(now);
      }
      ASSERT_EQ(wheel.wheel().Size(), reference.wheel().Size()) << "step " << step;
      ASSERT_EQ(wheel.wheel().NextExpiry(), reference.wheel().NextExpiry())
          << "step " << step;
      ASSERT_EQ(wheel.wheel().NextExpiry(), wheel.wheel().NextExpiryScan())
          << "step " << step;
      const auto& got = wheel.log();
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
    // The run must have reached past every cascade level and fired a lot.
    EXPECT_GT(now / kMillisecond, int64_t{1} << 20);
    EXPECT_GT(std::count_if(wheel.log().begin(), wheel.log().end(),
                            [](const WheelEvent& e) { return e.op == 'F'; }),
              500);
  }
}

// A handle must stay dead once its timer fired or was canceled, even after
// the wheel has handed its storage to newer timers.
TEST(HierarchicalWheelTest, StaleHandlesRejectedAfterReuse) {
  HierarchicalWheelTimerQueue wheel(kMillisecond);
  int fired = 0;
  const TimerHandle fired_handle = wheel.Schedule(kMillisecond, [&](TimerHandle) { ++fired; });
  const TimerHandle canceled_handle = wheel.Schedule(kSecond, [&](TimerHandle) { ++fired; });
  wheel.Advance(2 * kMillisecond);
  ASSERT_EQ(fired, 1);
  ASSERT_TRUE(wheel.Cancel(canceled_handle));
  std::set<TimerHandle> fresh;
  for (int i = 0; i < 64; ++i) {
    fresh.insert(wheel.Schedule(kSecond + i * kMillisecond, [&](TimerHandle) { ++fired; }));
  }
  ASSERT_EQ(fresh.size(), 64u);
  for (const TimerHandle stale : {fired_handle, canceled_handle}) {
    EXPECT_EQ(fresh.count(stale), 0u) << "a live timer reuses a dead handle";
    EXPECT_FALSE(wheel.Cancel(stale));
    EXPECT_EQ(wheel.Reschedule(stale, 5 * kMillisecond), kInvalidTimerHandle);
  }
  EXPECT_EQ(wheel.Size(), 64u);
  wheel.Advance(2 * kSecond);
  EXPECT_EQ(fired, 65);
}

TEST(TreeQueueTest, ExactNanosecondResolution) {
  TreeTimerQueue tree;
  std::vector<SimTime> fired;
  tree.Schedule(1000, [&](TimerHandle) { fired.push_back(1000); });
  tree.Schedule(1001, [&](TimerHandle) { fired.push_back(1001); });
  tree.Advance(1000);
  ASSERT_EQ(fired.size(), 1u);
  tree.Advance(1001);
  ASSERT_EQ(fired.size(), 2u);
}

}  // namespace
}  // namespace tempo

namespace tempo {
namespace {

// Granularity sweep: both wheels must honour never-fire-early and
// fire-within-one-tick at any configured tick width.
class WheelGranularityTest
    : public ::testing::TestWithParam<std::tuple<bool, SimDuration>> {};

TEST_P(WheelGranularityTest, QuantisationBoundsHold) {
  const auto& [hierarchical, granularity] = GetParam();
  std::unique_ptr<TimerQueue> wheel;
  if (hierarchical) {
    wheel = std::make_unique<HierarchicalWheelTimerQueue>(granularity);
  } else {
    wheel = std::make_unique<HashedWheelTimerQueue>(granularity, 64);
  }
  Rng rng(13);
  struct Expect {
    SimTime expiry;
    SimTime fired_at = -1;
  };
  std::vector<Expect> expects;
  std::vector<Expect*> slots;
  SimTime now = 0;
  for (int i = 0; i < 300; ++i) {
    expects.push_back(Expect{rng.UniformInt(1, 400) * granularity / 2});
  }
  for (auto& e : expects) {
    wheel->Schedule(e.expiry, [&e, &now](TimerHandle) { e.fired_at = now; });
  }
  while (wheel->Size() > 0) {
    now += granularity;
    wheel->Advance(now);
  }
  for (const auto& e : expects) {
    ASSERT_GE(e.fired_at, e.expiry - granularity) << "fired early";
    EXPECT_LE(e.fired_at, e.expiry + 2 * granularity) << "fired too late";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Granularities, WheelGranularityTest,
    ::testing::Combine(::testing::Bool(),
                       ::testing::Values(100 * kMicrosecond, kMillisecond,
                                         4 * kMillisecond, 100 * kMillisecond)));

}  // namespace
}  // namespace tempo

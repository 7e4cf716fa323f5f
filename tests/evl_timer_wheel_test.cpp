// Unit tests for the hierarchical timer wheel — driven entirely in virtual
// time (origin 0, explicit `now` values), so every case is deterministic.
#include "evl/timer_wheel.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <utility>
#include <vector>

namespace tw::evl {
namespace {

constexpr std::int64_t kTick = TimerWheel::kTickUs;

TEST(TimerWheel, FiresInDeadlineOrderAcrossTicks) {
  TimerWheel w(0);
  std::vector<int> order;
  w.schedule(30 * kTick, [&] { order.push_back(3); });
  w.schedule(10 * kTick, [&] { order.push_back(1); });
  w.schedule(20 * kTick, [&] { order.push_back(2); });
  std::int64_t now = 0;
  while (!w.empty()) {
    now += kTick;
    while (auto f = w.pop_due(now)) f->fn();
  }
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(TimerWheel, NeverFiresBeforeDeadline) {
  // A timer must not be returned by a pop_due() whose `now` precedes its
  // deadline, even by 1 µs.
  TimerWheel w(0);
  const std::int64_t deadline = 5 * kTick + 1;  // just past a tick edge
  w.schedule(deadline, [] {});
  EXPECT_FALSE(w.pop_due(deadline - 1).has_value());
  EXPECT_FALSE(w.pop_due(5 * kTick).has_value());
  EXPECT_TRUE(w.pop_due(6 * kTick).has_value());  // next tick boundary
}

TEST(TimerWheel, MidTickDeadlineFiresAtItsDeadline) {
  // Exact contract: a deadline inside a tick fires at pop_due(deadline),
  // not at the end of its tick, and next_time() names it exactly.
  TimerWheel w(0);
  const std::int64_t deadline = 5 * kTick + 300;
  w.schedule(deadline, [] {});
  EXPECT_EQ(w.next_time(), deadline);
  EXPECT_FALSE(w.pop_due(deadline - 1).has_value());
  auto f = w.pop_due(deadline);
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->deadline, deadline);
  EXPECT_TRUE(w.empty());
}

TEST(TimerWheel, BoundaryTimerFiresMidTickFromAHigherLevel) {
  // Expiry tick 256 is a level-1 boundary: armed 256 ticks out, the timer
  // parks on level 1 and would cascade only at tick 256. Once the hand is
  // on tick 255 it is pulled down, so it fires at its deadline inside
  // tick 255's span rather than at the cascade, up to a tick late.
  TimerWheel w(0);
  const std::int64_t deadline = 256 * kTick - 3;
  w.schedule(deadline, [] {});
  EXPECT_EQ(w.level_size(1), 1u);
  EXPECT_LE(w.next_time(), deadline);  // a lower bound while parked
  EXPECT_FALSE(w.pop_due(255 * kTick).has_value());
  EXPECT_EQ(w.level_size(0), 1u);  // pulled into tick 256's slot
  EXPECT_EQ(w.next_time(), deadline);
  EXPECT_FALSE(w.pop_due(deadline - 1).has_value());
  auto f = w.pop_due(deadline);
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->deadline, deadline);
}

TEST(TimerWheel, SameTickTimersPopFifo) {
  TimerWheel w(0);
  std::vector<int> order;
  for (int i = 0; i < 10; ++i)
    w.schedule(7 * kTick, [&order, i] { order.push_back(i); });
  while (auto f = w.pop_due(8 * kTick)) f->fn();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(TimerWheel, DueTimersPopInDeadlineOrderEqualDeadlinesFifo) {
  // One slot, deadlines out of order with ties: the lazy sort orders by
  // deadline and keeps arm order among equal deadlines.
  TimerWheel w(0);
  const std::int64_t base = 9 * kTick + 10;
  const std::int64_t offsets[] = {500, 20, 500, 20, 300, 20, 500};
  std::vector<int> order;
  for (int i = 0; i < 7; ++i)
    w.schedule(base + offsets[i], [&order, i] { order.push_back(i); });
  EXPECT_EQ(w.next_time(), base + 20);  // sorts the slot
  while (auto f = w.pop_due(base + 1000)) f->fn();
  EXPECT_EQ(order, (std::vector<int>{1, 3, 5, 4, 0, 2, 6}));
}

TEST(TimerWheel, EqualDeadlinesFifoAcrossCascadeIntoSortedSlot) {
  // `first` is armed 300 ticks out and parks on level 1; `second` and
  // `third` are armed later for the same deadline straight into level 0,
  // whose slot is sorted first. After the cascade brings `first` down,
  // arm order must still decide the tie.
  TimerWheel w(0);
  const std::int64_t deadline = 300 * kTick + 7;
  std::vector<int> order;
  w.schedule(deadline, [&] { order.push_back(1); });
  EXPECT_EQ(w.level_size(1), 1u);
  EXPECT_FALSE(w.pop_due(100 * kTick).has_value());
  w.schedule(deadline, [&] { order.push_back(2); });
  w.schedule(deadline - 5, [&] { order.push_back(0); });
  w.schedule(deadline, [&] { order.push_back(3); });
  EXPECT_EQ(w.level_size(0), 3u);
  // Step by next_time(): lower bounds until the cascade, then exact.
  std::int64_t now = 100 * kTick;
  for (int hops = 0; w.next_time() < deadline - 5; ++hops) {
    ASSERT_LT(hops, 8) << "next_time failed to converge";
    ASSERT_GT(w.next_time(), now);
    now = w.next_time();
    ASSERT_FALSE(w.pop_due(now).has_value()) << "fired before deadline";
  }
  EXPECT_EQ(w.level_size(1), 0u);
  EXPECT_EQ(w.next_time(), deadline - 5);
  while (auto f = w.pop_due(deadline)) f->fn();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(TimerWheel, EqualDeadlinesFifoAcrossBoundaryPull) {
  // As above, but `first` expires on the level boundary itself and comes
  // down by the pull at tick 255 instead of the cascade at 256.
  TimerWheel w(0);
  const std::int64_t deadline = 256 * kTick - 40;
  std::vector<int> order;
  w.schedule(deadline, [&] { order.push_back(1); });
  EXPECT_FALSE(w.pop_due(50 * kTick).has_value());
  w.schedule(deadline, [&] { order.push_back(2); });
  EXPECT_FALSE(w.pop_due(255 * kTick).has_value());
  EXPECT_EQ(w.next_time(), deadline);
  while (auto f = w.pop_due(deadline)) f->fn();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(TimerWheel, ArmCancelRearmOnTheSortedSlot) {
  TimerWheel w(0);
  const std::int64_t base = 20 * kTick + 100;
  std::vector<int> order;
  auto arm = [&](std::int64_t at, int tag) {
    return w.schedule(base + at, [&order, tag] { order.push_back(tag); });
  };
  const sim::EventId a = arm(400, 1);
  arm(600, 2);
  EXPECT_EQ(w.next_time(), base + 400);  // the slot is now the sorted one
  // Arms into the sorted slot insert in order: at the head, in the middle
  // and, for a tie, after the equal deadline already there.
  const sim::EventId head = arm(50, 0);
  EXPECT_EQ(w.next_time(), base + 50);
  const sim::EventId mid = arm(500, 3);
  arm(600, 4);
  // Cancel the head and a middle timer; the order closes over the gaps.
  ASSERT_TRUE(w.cancel(head));
  EXPECT_EQ(w.next_time(), base + 400);
  ASSERT_TRUE(w.cancel(a));
  EXPECT_EQ(w.next_time(), base + 500);
  // Re-arm to the front, then to the back: it leaves and re-enters the
  // slot, and a re-armed timer orders as armed now (after tag 4 at 600).
  ASSERT_TRUE(w.reschedule(mid, base + 10));
  EXPECT_EQ(w.next_time(), base + 10);
  ASSERT_TRUE(w.reschedule(mid, base + 600));
  EXPECT_EQ(w.next_time(), base + 600);
  std::vector<std::int64_t> fired_at;
  while (!w.empty()) {
    const std::int64_t now = w.next_time();
    while (auto f = w.pop_due(now)) {
      fired_at.push_back(f->deadline);
      f->fn();
    }
  }
  EXPECT_EQ(order, (std::vector<int>{2, 4, 3}));
  EXPECT_EQ(fired_at,
            (std::vector<std::int64_t>{base + 600, base + 600, base + 600}));
}

TEST(TimerWheel, MatchesExactOrderModelUnderChurn) {
  // Against a reference (deadline, arm order) set: under random arms,
  // cancels, re-arms and clock steps across levels 0–2, pop_due(now)
  // yields exactly the model's due timers in the model's order, and
  // next_time() never overshoots the earliest deadline.
  TimerWheel w(0);
  std::map<std::pair<std::int64_t, std::uint64_t>, int> model;
  std::map<int, std::pair<sim::EventId, std::pair<std::int64_t, std::uint64_t>>>
      live;
  std::uint64_t x = 0x243f6a8885a308d3ull;
  auto rnd = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  std::uint64_t seq = 0;
  std::int64_t now = 0;
  int next_tag = 0;
  std::vector<int> fired;
  auto delay = [&]() -> std::int64_t {
    switch (rnd() % 4) {
      case 0: return static_cast<std::int64_t>(rnd() % (3 * kTick));
      case 1: return static_cast<std::int64_t>(rnd() % (300 * kTick));
      case 2: return static_cast<std::int64_t>(rnd() % (70'000 * kTick));
      default: {  // near the next level-1 boundary
        const std::int64_t edge = (now / (256 * kTick) + 1) * 256 * kTick;
        return edge - now - kTick + static_cast<std::int64_t>(rnd() % (2 * kTick));
      }
    }
  };
  for (int op = 0; op < 200'000; ++op) {
    const std::uint64_t r = rnd() % 8;
    if (r < 3) {
      const int tag = next_tag++;
      const std::int64_t at = now + delay();
      const sim::EventId id =
          w.schedule(at, [&fired, tag] { fired.push_back(tag); });
      const auto key = std::make_pair(at, seq++);
      model[key] = tag;
      live[tag] = {id, key};
    } else if (r < 5 && !live.empty()) {
      auto it = live.lower_bound(
          static_cast<int>(rnd() % static_cast<std::uint64_t>(next_tag)));
      if (it == live.end()) it = live.begin();
      if (r == 3) {
        ASSERT_TRUE(w.cancel(it->second.first));
        model.erase(it->second.second);
        live.erase(it);
      } else {
        const std::int64_t at = now + delay();
        ASSERT_TRUE(w.reschedule(it->second.first, at));
        model.erase(it->second.second);
        const auto key = std::make_pair(at, seq++);
        model[key] = it->first;
        it->second.second = key;
      }
    } else {
      const std::int64_t next = w.next_time();
      if (!model.empty()) {
        ASSERT_LE(next, model.begin()->first.first) << "op " << op;
      }
      // Step either exactly to next_time() or by a random amount.
      if (r == 5 && next != sim::kNever && next > now) {
        now = next;
      } else {
        now += static_cast<std::int64_t>(rnd() % (2 * kTick));
      }
      fired.clear();
      while (auto f = w.pop_due(now)) f->fn();
      std::vector<int> expect;
      while (!model.empty() && model.begin()->first.first <= now) {
        expect.push_back(model.begin()->second);
        live.erase(model.begin()->second);
        model.erase(model.begin());
      }
      ASSERT_EQ(fired, expect) << "op " << op << " now " << now;
    }
    ASSERT_EQ(w.size(), model.size());
  }
}

TEST(TimerWheel, FifoSurvivesCascade) {
  // Timers parked above level 0 must keep their schedule order through the
  // cascade re-hash.
  TimerWheel w(0);
  const std::int64_t deadline = 300 * kTick;  // level 1 at schedule time
  std::vector<int> order;
  for (int i = 0; i < 8; ++i)
    w.schedule(deadline, [&order, i] { order.push_back(i); });
  EXPECT_EQ(w.level_size(1), 8u);
  while (auto f = w.pop_due(deadline)) f->fn();
  for (int i = 0; i < 8; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
  EXPECT_GE(w.stats().cascades, 1u);
  EXPECT_GE(w.stats().cascaded_timers, 8u);
}

TEST(TimerWheel, DeadlineExactlyAtLevelBoundary) {
  // Tick 256 is the first tick addressed by level 1; it must fire exactly
  // when the hand wraps, not a lap later and not early.
  TimerWheel w(0);
  bool fired = false;
  w.schedule(256 * kTick, [&] { fired = true; });
  EXPECT_EQ(w.level_size(1), 1u);
  EXPECT_FALSE(w.pop_due(256 * kTick - 1).has_value());
  auto f = w.pop_due(256 * kTick);
  ASSERT_TRUE(f.has_value());
  f->fn();
  EXPECT_TRUE(fired);
}

TEST(TimerWheel, SlotEdgeJustBeforeBoundaryStaysLevel0) {
  TimerWheel w(0);
  w.schedule(255 * kTick, [] {});
  EXPECT_EQ(w.level_size(0), 1u);
  EXPECT_EQ(w.next_time(), 255 * kTick);
  EXPECT_TRUE(w.pop_due(255 * kTick).has_value());
}

TEST(TimerWheel, FarFutureTimersParkHighAndStillFire) {
  TimerWheel w(0);
  std::vector<int> order;
  const std::int64_t level2 = (std::int64_t{1} << 16) * kTick + 5 * kTick;
  const std::int64_t level3 = (std::int64_t{1} << 24) * kTick + 9 * kTick;
  w.schedule(level3, [&] { order.push_back(3); });
  w.schedule(level2, [&] { order.push_back(2); });
  EXPECT_EQ(w.level_size(2), 1u);
  EXPECT_EQ(w.level_size(3), 1u);
  while (auto f = w.pop_due(level2)) f->fn();
  EXPECT_EQ(order, (std::vector<int>{2}));
  while (auto f = w.pop_due(level3)) f->fn();
  EXPECT_EQ(order, (std::vector<int>{2, 3}));
}

TEST(TimerWheel, BeyondHorizonTimerRecascadesUntilItFits) {
  // Farther than the 4-level span (~51 days of ticks): parks in the last
  // level-3 slot and re-hashes each cascade until the delta fits.
  TimerWheel w(0);
  const std::int64_t deadline =
      static_cast<std::int64_t>((std::uint64_t{1} << 32) + 100) * kTick;
  bool fired = false;
  w.schedule(deadline, [&] { fired = true; });
  EXPECT_EQ(w.level_size(3), 1u);
  EXPECT_FALSE(w.pop_due(deadline - kTick).has_value());
  auto f = w.pop_due(deadline);
  ASSERT_TRUE(f.has_value());
  f->fn();
  EXPECT_TRUE(fired);
  EXPECT_TRUE(w.empty());
}

TEST(TimerWheel, ZeroDelayTimerIsImmediatelyDue) {
  TimerWheel w(0);
  // Advance the hand, then arm "in the past": clamps to due-now.
  EXPECT_FALSE(w.pop_due(50 * kTick).has_value());
  bool fired = false;
  const sim::EventId id = w.schedule(0, [&] { fired = true; });
  EXPECT_NE(id, sim::kNoEvent);
  EXPECT_EQ(w.ready_size(), 1u);
  // The effective deadline is clamped to the hand, so fire latency
  // measured against it stays ~0 for the run-asap idiom.
  auto f = w.pop_due(50 * kTick);
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->deadline, 50 * kTick);
  f->fn();
  EXPECT_TRUE(fired);
}

TEST(TimerWheel, ZeroDelayRearmChain) {
  TimerWheel w(0);
  int count = 0;
  std::function<void()> rearm = [&] {
    if (++count < 5) w.schedule(0, rearm);
  };
  w.schedule(0, rearm);
  while (auto f = w.pop_due(0)) f->fn();
  EXPECT_EQ(count, 5);
  EXPECT_TRUE(w.empty());
}

TEST(TimerWheel, CancelPreventsFire) {
  TimerWheel w(0);
  bool fired = false;
  const sim::EventId id = w.schedule(4 * kTick, [&] { fired = true; });
  EXPECT_TRUE(w.cancel(id));
  EXPECT_FALSE(w.cancel(id));  // already cancelled
  EXPECT_TRUE(w.empty());
  EXPECT_FALSE(w.pop_due(10 * kTick).has_value());
  EXPECT_FALSE(fired);
}

TEST(TimerWheel, CancelReadyTimer) {
  // A timer can be cancelled even after it has expired into the ready
  // queue (matches EventQueue: cancellable until popped).
  TimerWheel w(0);
  bool fired = false;
  w.schedule(kTick, [] {});
  const sim::EventId id = w.schedule(kTick, [&] { fired = true; });
  ASSERT_TRUE(w.pop_due(kTick).has_value());  // pops the first...
  EXPECT_EQ(w.ready_size(), 1u);              // ...second waits expired
  ASSERT_TRUE(w.cancel(id));
  EXPECT_FALSE(w.pop_due(2 * kTick).has_value());
  EXPECT_FALSE(fired);
  EXPECT_TRUE(w.empty());
}

TEST(TimerWheel, StaleHandleCannotCancelRecycledSlot) {
  // After a timer dies, its pool slot is recycled with a bumped
  // generation; the old handle must be refused.
  TimerWheel w(0);
  const sim::EventId a = w.schedule(kTick, [] {});
  EXPECT_TRUE(w.cancel(a));
  const sim::EventId b = w.schedule(2 * kTick, [] {});
  EXPECT_EQ(a & 0xffffffffu, b & 0xffffffffu) << "pool slot was not reused";
  EXPECT_NE(a, b);
  EXPECT_FALSE(w.cancel(a)) << "stale generation accepted";
  EXPECT_EQ(w.size(), 1u) << "stale cancel killed the recycled timer";
  EXPECT_TRUE(w.cancel(b));
}

TEST(TimerWheel, HandleOfFiredTimerIsStale) {
  TimerWheel w(0);
  const sim::EventId id = w.schedule(kTick, [] {});
  ASSERT_TRUE(w.pop_due(kTick).has_value());
  EXPECT_FALSE(w.cancel(id));
}

TEST(TimerWheel, RescheduleMovesDeadlineKeepsHandle) {
  TimerWheel w(0);
  bool fired = false;
  const sim::EventId id = w.schedule(5 * kTick, [&] { fired = true; });
  ASSERT_TRUE(w.reschedule(id, 400 * kTick));  // level 0 → level 1
  EXPECT_FALSE(w.pop_due(10 * kTick).has_value());
  EXPECT_FALSE(fired);
  auto f = w.pop_due(400 * kTick);
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->id, id);
  f->fn();
  EXPECT_TRUE(fired);
  EXPECT_FALSE(w.reschedule(id, 500 * kTick));  // handle dead after fire
}

TEST(TimerWheel, NextTimeIsExactForLevel0AndBoundsHigherLevels) {
  TimerWheel w(0);
  EXPECT_EQ(w.next_time(), sim::kNever);
  w.schedule(40 * kTick + 3, [] {});  // on level 0: exact
  EXPECT_EQ(w.next_time(), 40 * kTick + 3);
  TimerWheel far(0);
  const std::int64_t deadline = 1000 * kTick;
  far.schedule(deadline, [] {});
  // Parked at level 1: next_time is just before the cascade boundary — a
  // lower bound that never overshoots the real fire time.
  EXPECT_LE(far.next_time(), deadline);
  EXPECT_GT(far.next_time(), 0);
  // Following next_time() repeatedly converges on the fire time.
  std::int64_t now = 0;
  int hops = 0;
  while (!far.pop_due(now).has_value()) {
    ASSERT_LT(++hops, 16) << "next_time failed to converge";
    ASSERT_NE(far.next_time(), sim::kNever);
    ASSERT_GT(far.next_time(), now) << "next_time did not advance";
    now = far.next_time();
  }
  EXPECT_EQ(now, deadline);
}

TEST(TimerWheel, ChurnIsBoundedMemory) {
  // The protocol workload: a million arm/cancel cycles with a small live
  // set must not grow the node pool beyond the concurrency high-water
  // mark (the heap-based EventQueue used to leak a tombstone per cancel).
  TimerWheel w(0);
  std::vector<sim::EventId> live;
  std::uint64_t x = 0x9e3779b97f4a7c15ull;  // splitmix-ish, deterministic
  auto rnd = [&x] {
    x += 0x9e3779b97f4a7c15ull;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  };
  constexpr int kCycles = 1'000'000;
  constexpr std::size_t kLiveCap = 64;
  for (int i = 0; i < kCycles; ++i) {
    const std::int64_t deadline =
        static_cast<std::int64_t>(rnd() % (500'000 * static_cast<std::uint64_t>(kTick)));
    live.push_back(w.schedule(deadline, [] {}));
    if (live.size() > kLiveCap) {
      const std::size_t victim = rnd() % live.size();
      ASSERT_TRUE(w.cancel(live[victim]));
      live[victim] = live.back();
      live.pop_back();
    }
  }
  EXPECT_LE(w.allocated_nodes(), kLiveCap + 2);
  EXPECT_EQ(w.size(), live.size());
  EXPECT_EQ(w.stats().scheduled, static_cast<std::uint64_t>(kCycles));
}

TEST(TimerWheel, MassDrainDeliversEveryTimerExactlyOnce) {
  TimerWheel w(0);
  constexpr int kTimers = 100'000;
  std::uint64_t x = 12345;
  auto rnd = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  std::int64_t max_deadline = 0;
  for (int i = 0; i < kTimers; ++i) {
    const std::int64_t deadline =
        static_cast<std::int64_t>(rnd() % (1u << 22)) * 16;  // up to ~67 s
    max_deadline = std::max(max_deadline, deadline);
    w.schedule(deadline, [] {});
  }
  std::size_t fired = 0;
  std::int64_t prev_tick = -1;
  std::int64_t now = 0;
  while (!w.empty()) {
    now += 512 * kTick;
    while (auto f = w.pop_due(now)) {
      ++fired;
      // Never early, never more than a tick late relative to `now` steps.
      EXPECT_LE(f->deadline, now);
      const std::int64_t tick = (f->deadline + kTick - 1) / kTick;
      EXPECT_GE(tick, prev_tick) << "ticks popped out of order";
      prev_tick = tick;
    }
    ASSERT_LE(now, max_deadline + 600 * kTick) << "drain failed to finish";
    prev_tick = -1;  // FIFO order is only guaranteed within one drain pass
  }
  EXPECT_EQ(fired, static_cast<std::size_t>(kTimers));
  EXPECT_EQ(w.stats().fired, static_cast<std::uint64_t>(kTimers));
}

TEST(TimerWheel, IdleGapSkipsWithoutTickByTickWork) {
  // A loop that slept for a long time (or a timer 50 days out) must not
  // advance tick-by-tick. Indirect check: a huge jump completes fast
  // enough to not trip the test timeout, and cascade counters stay tiny.
  TimerWheel w(0);
  w.schedule(sim::sec(3600), [] {});                    // 1 hour out
  EXPECT_FALSE(w.pop_due(sim::sec(1800)).has_value());  // jump 30 min
  auto f = w.pop_due(sim::sec(3600));
  ASSERT_TRUE(f.has_value());
  EXPECT_LE(w.stats().cascades, 8u);
}

}  // namespace
}  // namespace tw::evl

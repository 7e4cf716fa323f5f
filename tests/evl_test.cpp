#include "evl/dispatch.hpp"
#include "evl/event_loop.hpp"

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>

#include "obs/metrics.hpp"
#include "obs/recorder.hpp"

namespace tw::evl {
namespace {

TEST(EventLoop, TimerFires) {
  EventLoop loop;
  bool fired = false;
  loop.add_timer_after(sim::msec(5), [&] { fired = true; });
  loop.run_for(sim::msec(100));
  EXPECT_TRUE(fired);
}

TEST(EventLoop, TimersFireInOrder) {
  EventLoop loop;
  std::vector<int> order;
  loop.add_timer_after(sim::msec(20), [&] { order.push_back(2); });
  loop.add_timer_after(sim::msec(5), [&] { order.push_back(1); });
  loop.run_for(sim::msec(100));
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(EventLoop, CancelledTimerDoesNotFire) {
  EventLoop loop;
  bool fired = false;
  const auto id = loop.add_timer_after(sim::msec(5), [&] { fired = true; });
  loop.cancel_timer(id);
  loop.run_for(sim::msec(30));
  EXPECT_FALSE(fired);
}

TEST(EventLoop, StopFromCallback) {
  EventLoop loop;
  int count = 0;
  std::function<void()> tick = [&] {
    if (++count >= 3) {
      loop.stop();
    } else {
      loop.add_timer_after(sim::msec(1), tick);
    }
  };
  loop.add_timer_after(0, tick);
  loop.run();
  EXPECT_EQ(count, 3);
}

TEST(EventLoop, FdReadableDispatch) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_DGRAM, 0, fds), 0);
  EventLoop loop;
  int reads = 0;
  loop.watch_fd(fds[0], [&] {
    char buf[16];
    ::recv(fds[0], buf, sizeof(buf), 0);
    ++reads;
    loop.stop();
  });
  ::send(fds[1], "x", 1, 0);
  loop.run();
  EXPECT_EQ(reads, 1);
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST(EventLoop, PostFromOtherThread) {
  EventLoop loop;
  std::atomic<bool> ran{false};
  std::thread poster([&] { loop.post([&] { ran = true; loop.stop(); }); });
  loop.run();
  poster.join();
  EXPECT_TRUE(ran);
}

TEST(EventLoop, PostWakesSleepingPollImmediately) {
  // Regression: post() used to only enqueue, so a sleeping poll_once() slept
  // out its full timeout before noticing. With the wakeup descriptor the
  // callback must run orders of magnitude sooner than the 500ms poll budget.
  EventLoop loop;
  std::atomic<bool> done{false};
  std::atomic<std::int64_t> woke_at_us{0};
  std::thread loop_thread([&] {
    while (!done.load()) loop.poll_once(sim::msec(500));
  });
  // Give the loop thread time to be asleep inside poll().
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  const std::int64_t posted_at = EventLoop::mono_now_us();
  loop.post([&] {
    woke_at_us = EventLoop::mono_now_us();
    done = true;
  });
  loop_thread.join();
  const std::int64_t latency_us = woke_at_us.load() - posted_at;
  EXPECT_GE(latency_us, 0);
  // Well under the poll timeout; generous bound for loaded CI machines.
  EXPECT_LT(latency_us, 50 * 1000) << "post() did not interrupt poll";
}

TEST(EventLoop, ImmediateRearmFiresInSamePoll) {
  // Regression: dispatch_due_timers() captured `now` once, so a callback
  // re-arming an already-due timer stalled until the next poll_once(). The
  // loop now re-reads the clock per iteration, so a short chain of immediate
  // re-arms completes inside one pass.
  EventLoop loop;
  int count = 0;
  std::function<void()> chain = [&] {
    if (++count < 5) loop.add_timer_at(0, chain);  // deadline in the past
  };
  loop.add_timer_at(0, chain);
  const int dispatched = loop.poll_once(0);
  EXPECT_EQ(count, 5);
  EXPECT_GE(dispatched, 5);
}

TEST(EventLoop, RunawayRearmChainIsBoundedPerPoll) {
  // A pathological always-due re-arm must not starve the rest of the loop:
  // one poll_once() dispatches at most kMaxTimerDispatchPerPoll timers.
  EventLoop loop;
  int count = 0;
  std::function<void()> forever = [&] {
    ++count;
    loop.add_timer_at(0, forever);
  };
  loop.add_timer_at(0, forever);
  loop.poll_once(0);
  EXPECT_EQ(count, EventLoop::kMaxTimerDispatchPerPoll);
  loop.poll_once(0);  // the chain resumes on the next pass
  EXPECT_EQ(count, 2 * EventLoop::kMaxTimerDispatchPerPoll);
}

TEST(EventLoop, TimerChurnThroughTheWheel) {
  // Drive the full loop through the protocol's standing workload —
  // arm/cancel churn with a fraction surviving to fire — and check both
  // delivery exactness and that the wheel's pool stays at the concurrency
  // high-water mark instead of growing with total churn.
  EventLoop loop;
  constexpr int kBatch = 2'000;
  int fired = 0;
  int cancelled = 0;
  std::vector<sim::EventId> ids;
  for (int round = 0; round < 10; ++round) {
    ids.clear();
    for (int i = 0; i < kBatch; ++i)
      ids.push_back(loop.add_timer_after(sim::msec(2 + i % 7),
                                         [&] { ++fired; }));
    for (int i = 0; i < kBatch; i += 2) {  // cancel every other one
      loop.cancel_timer(ids[static_cast<size_t>(i)]);
      ++cancelled;
    }
    loop.run_for(sim::msec(25));
  }
  EXPECT_EQ(fired + cancelled, 10 * kBatch);
  EXPECT_EQ(cancelled, 10 * kBatch / 2);
  EXPECT_TRUE(loop.timer_wheel().empty());
  // Pool high-water: one round's live set, not ten rounds' churn.
  EXPECT_LE(loop.timer_wheel().allocated_nodes(),
            static_cast<std::size_t>(kBatch) + 16);
}

TEST(EventLoop, FireTraceCarriesArmIdAndLatency) {
  // Regression: timer_fire used to emit only the deadline, so a fire could
  // not be paired with its timer_arm. It now carries (id, latency_us).
  obs::Registry registry;
  obs::Recorder recorder(0, [] { return EventLoop::mono_now_us(); },
                         &registry);
  EventLoop loop;
  loop.set_recorder(&recorder);
  const sim::EventId id = loop.add_timer_after(sim::msec(3), [] {});
  const sim::EventId doomed = loop.add_timer_after(sim::msec(5), [] {});
  loop.cancel_timer(doomed);
  loop.run_for(sim::msec(60));
  loop.set_recorder(nullptr);

  bool saw_arm = false, saw_fire = false, saw_cancel = false;
  for (const obs::Event& e : recorder.ring().snapshot()) {
    if (e.kind == obs::EvKind::timer_arm && e.a == id) saw_arm = true;
    if (e.kind == obs::EvKind::timer_fire && e.a == id) {
      saw_fire = true;
      // Latency is measured against the effective deadline: non-negative
      // and (generously, for loaded CI) under a second.
      EXPECT_LT(e.b, 1'000'000u);
    }
    if (e.kind == obs::EvKind::timer_cancel && e.a == doomed)
      saw_cancel = true;
  }
  EXPECT_TRUE(saw_arm);
  EXPECT_TRUE(saw_fire) << "timer_fire did not carry the arm id";
  EXPECT_TRUE(saw_cancel);
}

TEST(EventLoop, WheelMetricsExportedThroughRegistry) {
  obs::Registry registry;
  obs::Recorder recorder(0, [] { return EventLoop::mono_now_us(); },
                         &registry);
  EventLoop loop;
  loop.set_recorder(&recorder);
  loop.add_timer_after(sim::msec(1), [] {});
  loop.add_timer_after(sim::sec(3600), [] {});  // stays parked
  const auto cancel_me = loop.add_timer_after(sim::msec(2), [] {});
  loop.cancel_timer(cancel_me);
  loop.run_for(sim::msec(30));
  const obs::MetricsSnapshot snap = registry.snapshot();
  EXPECT_EQ(snap.value("evl.wheel.scheduled"), 3u);
  EXPECT_EQ(snap.value("evl.wheel.cancelled"), 1u);
  EXPECT_EQ(snap.value("evl.wheel.fired"), 1u);
  EXPECT_EQ(snap.value("evl.wheel.size"), 1u);  // the hour-out timer
  loop.set_recorder(nullptr);
  // Detached: the pull source must be gone, not dangling.
  EXPECT_EQ(registry.snapshot().counters.count("evl.wheel.size"), 0u);
}

TEST(EventLoop, CancelWithStaleIdIsSafe) {
  EventLoop loop;
  bool fired = false;
  const sim::EventId id = loop.add_timer_after(sim::msec(1), [&] {
    fired = true;
  });
  loop.run_for(sim::msec(20));
  EXPECT_TRUE(fired);
  loop.cancel_timer(id);              // already fired: no-op
  loop.cancel_timer(sim::kNoEvent);   // never valid: no-op
  loop.cancel_timer(~sim::EventId{0});  // garbage: no-op
}

TEST(EventBasedDemux, DispatchesToCorrectHandler) {
  std::vector<std::uint64_t> sums(3, 0);
  std::vector<EventFn> handlers;
  for (size_t t = 0; t < 3; ++t)
    handlers.emplace_back([&sums, t](std::uint64_t v) { sums[t] += v; });
  EventBasedDemux demux(std::move(handlers));
  demux.post(0, 1);
  demux.post(1, 10);
  demux.post(2, 100);
  demux.post(1, 10);
  EXPECT_EQ(demux.drain(), 4u);
  EXPECT_EQ(sums, (std::vector<std::uint64_t>{1, 20, 100}));
}

TEST(ThreadPerEventDemux, ProcessesAllEvents) {
  std::vector<std::uint64_t> sums(4, 0);
  std::vector<EventFn> handlers;
  for (size_t t = 0; t < 4; ++t)
    handlers.emplace_back([&sums, t](std::uint64_t v) { sums[t] += v; });
  {
    ThreadPerEventDemux demux(std::move(handlers));
    for (int i = 0; i < 100; ++i)
      demux.post(static_cast<EventTypeId>(i % 4), 1);
    demux.drain();
    for (const auto s : sums) EXPECT_EQ(s, 25u);
  }
}

TEST(ThreadPerEventDemux, PostAfterShutdownIsRejectedAndDrainReturns) {
  // Regression: post() after shutdown used to enqueue work no worker would
  // ever drain, so pending_ never hit zero and drain() deadlocked.
  std::atomic<int> handled{0};
  std::vector<EventFn> handlers;
  handlers.emplace_back([&](std::uint64_t) { ++handled; });
  ThreadPerEventDemux demux(std::move(handlers));
  EXPECT_TRUE(demux.post(0, 1));
  demux.drain();
  EXPECT_EQ(handled.load(), 1);
  demux.shutdown();
  EXPECT_FALSE(demux.post(0, 2)) << "post accepted after shutdown";
  demux.drain();  // must return immediately, not deadlock
  EXPECT_EQ(handled.load(), 1);
  demux.shutdown();  // idempotent
}

TEST(ThreadPerEventDemux, ShutdownDrainsQueuedEventsFirst) {
  std::atomic<int> handled{0};
  std::vector<EventFn> handlers;
  handlers.emplace_back([&](std::uint64_t) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    ++handled;
  });
  ThreadPerEventDemux demux(std::move(handlers));
  for (int i = 0; i < 20; ++i) EXPECT_TRUE(demux.post(0, 0));
  demux.shutdown();  // workers exit only once their queues are empty
  EXPECT_EQ(handled.load(), 20);
}

TEST(ThreadPerEventDemux, MutualExclusionOfHandlers) {
  // The paper's explicit scheduling: at most one handler runs at a time.
  std::atomic<int> inside{0};
  std::atomic<bool> overlapped{false};
  std::vector<EventFn> handlers;
  for (size_t t = 0; t < 8; ++t)
    handlers.emplace_back([&](std::uint64_t) {
      if (inside.fetch_add(1) != 0) overlapped = true;
      inside.fetch_sub(1);
    });
  {
    ThreadPerEventDemux demux(std::move(handlers));
    for (int i = 0; i < 400; ++i)
      demux.post(static_cast<EventTypeId>(i % 8), 0);
    demux.drain();
  }
  EXPECT_FALSE(overlapped.load());
}

}  // namespace
}  // namespace tw::evl

// Real-clock timer lateness of EventLoop. A separate executable so that
// ctest can run it alone (RUN_SERIAL): parallel test load on the host
// would stretch the delays it bounds.
#include "evl/event_loop.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/recorder.hpp"

namespace tw::evl {
namespace {

TEST(EventLoop, TimersFireOnTheirDeadlineNotATickLate) {
  // Real clock: 20 timers 2–5 ms out. The loop sleeps to the µs and the
  // wheel serves a due timer from the next tick's slot, so the median
  // timer_fire latency stays well under one tick. The deadlines sit just
  // past lines of the wheel's tick grid, which starts when the loop is
  // built: the worst case for a wheel that rounds each deadline up to its
  // tick and a loop that rounds each sleep up to a whole millisecond
  // (that combination fires these timers more than a tick late).
  obs::Registry registry;
  obs::Recorder recorder(0, [] { return EventLoop::mono_now_us(); },
                         &registry);
  const std::int64_t before = EventLoop::mono_now_us();
  EventLoop loop;
  const std::int64_t past_edge = EventLoop::mono_now_us() - before + 20;
  loop.set_recorder(&recorder);
  constexpr int kTimers = 20;
  for (int i = 0; i < kTimers; ++i)
    loop.add_timer_at(before + (2 + i % 3) * TimerWheel::kTickUs + past_edge +
                          i,
                      [] {});
  loop.run_for(sim::msec(30));
  loop.set_recorder(nullptr);

  std::vector<std::uint64_t> latency_us;
  for (const obs::Event& e : recorder.ring().snapshot())
    if (e.kind == obs::EvKind::timer_fire) latency_us.push_back(e.b);
  ASSERT_EQ(latency_us.size(), static_cast<std::size_t>(kTimers));
  std::sort(latency_us.begin(), latency_us.end());
  EXPECT_LT(latency_us[kTimers / 2],
            static_cast<std::uint64_t>(TimerWheel::kTickUs));
}

}  // namespace
}  // namespace tw::evl

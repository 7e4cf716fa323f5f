// The event-based concurrency framework of paper §5.
//
// "We first implemented an event handler that allows a client to wait for
//  multiple concurrent events: the client can define for each event a
//  procedure that processes that event. [...] At any time, at most one event
//  is processed and therefore no explicit synchronization between procedures
//  [...] is required. The event handler is implemented by a single thread of
//  control."
//
// This EventLoop demultiplexes readable file descriptors (via ppoll(2)) and
// timer expirations into user callbacks, all on the calling thread. It backs
// the real UDP transport and the thread-vs-event benchmark (experiment E6).
//
// Timers are stored in a hierarchical TimerWheel (evl/timer_wheel.hpp):
// O(1) arm/cancel/re-arm under the protocol's arm-mostly-cancel churn, and
// each timer fires at its µs deadline: the loop sleeps in ppoll(2) until
// the wheel's exact next deadline (whole-ms poll(2), rounded up, where
// ppoll is missing). The discrete-event simulator keeps sim::EventQueue.
//
// Cross-thread post() is wired to a wakeup descriptor (eventfd, with a
// self-pipe fallback) that is part of the poll set, so a posted callback
// interrupts a sleeping poll_once() immediately instead of waiting out the
// poll timeout.
#pragma once

#include <poll.h>

#include <cstdint>
#include <functional>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "evl/timer_wheel.hpp"
#include "obs/recorder.hpp"
#include "sim/time.hpp"

namespace tw::evl {

class EventLoop {
 public:
  /// Upper bound on timer callbacks dispatched per poll_once() pass. The
  /// due-timer loop re-reads the clock after every callback so an immediate
  /// re-arm fires in the same pass; this bound keeps a pathological
  /// always-due re-arm chain from starving fd dispatch.
  static constexpr int kMaxTimerDispatchPerPoll = 256;

  /// Single-wait timeout ceiling. Bounds the int conversion for far-future
  /// timers (a µs wait near INT64_MAX used to overflow the ms cast into a
  /// negative timeout, i.e. poll-forever); waking once a minute to re-bound
  /// the wait costs nothing.
  static constexpr int kMaxPollTimeoutMs = 60 * 1000;

  EventLoop();
  ~EventLoop();
  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Monotonic wall time in µs (CLOCK_MONOTONIC).
  [[nodiscard]] static std::int64_t mono_now_us();

  /// Invoke `on_readable` whenever fd becomes readable.
  void watch_fd(int fd, std::function<void()> on_readable);
  void unwatch_fd(int fd);

  sim::EventId add_timer_at(std::int64_t mono_us, std::function<void()> fn);
  sim::EventId add_timer_after(sim::Duration d, std::function<void()> fn);
  void cancel_timer(sim::EventId id);

  /// Thread-safe: enqueue `fn` to run on the loop thread during its next
  /// poll_once iteration, and wake the loop if it is sleeping in poll. The
  /// only EventLoop entry point that may be called from a foreign thread.
  void post(std::function<void()> fn);

  /// Run one demultiplexing step: wait (bounded by `max_wait_us`) for the
  /// next fd/timer/post event and dispatch everything due. Returns number
  /// of callbacks dispatched.
  int poll_once(sim::Duration max_wait_us);

  /// Run until stop() is called from inside a callback.
  void run();

  /// Run for approximately `d` of wall time.
  void run_for(sim::Duration d);

  void stop() { stopped_ = true; }

  /// Attach a per-process trace recorder: timer arm/fire/cancel and post
  /// wakeups are traced, and when the recorder carries a metrics registry
  /// the loop registers poll-error counters plus a pull source exporting
  /// the timer wheel's occupancy and cascade counters ("evl.wheel.*").
  /// Pass nullptr to detach. Loop-thread only.
  void set_recorder(obs::Recorder* recorder);

  /// The loop's timer store, exposed read-only for tests and benches.
  [[nodiscard]] const TimerWheel& timer_wheel() const { return timers_; }

 private:
  int dispatch_due_timers();
  int dispatch_posted();
  /// Drain the wakeup descriptor after poll reported it readable.
  void drain_wakeup();

  TimerWheel timers_;  // keyed on monotonic µs
  std::unordered_map<int, std::function<void()>> fd_handlers_;
  /// poll_once's poll set, rebuilt each pass in place (no allocation once
  /// its capacity covers the watched descriptors).
  std::vector<pollfd> pollfds_;
  bool stopped_ = false;

  std::mutex posted_mu_;
  std::vector<std::function<void()>> posted_;

  // Wakeup channel: eventfd on Linux (wake_rd_ == wake_wr_), else a pipe.
  int wake_rd_ = -1;
  int wake_wr_ = -1;

  obs::Recorder* recorder_ = nullptr;
  obs::Registry* metrics_registry_ = nullptr;  ///< owner of wheel_source_
  obs::Registry::SourceId wheel_source_ = 0;
  obs::Counter* poll_eintr_ = nullptr;  ///< EINTR retries (benign)
  obs::Counter* poll_errors_ = nullptr; ///< hard poll(2) failures
};

}  // namespace tw::evl

#include "evl/event_loop.hpp"

#include <errno.h>
#include <fcntl.h>
#include <poll.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>

#if defined(__linux__)
#include <sys/eventfd.h>
#endif

namespace tw::evl {

EventLoop::EventLoop() : timers_(mono_now_us()) {
#if defined(__linux__)
  wake_rd_ = wake_wr_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (wake_rd_ >= 0) return;
#endif
  int fds[2] = {-1, -1};
  if (::pipe(fds) == 0) {
    for (const int fd : fds) {
      ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
      ::fcntl(fd, F_SETFD, FD_CLOEXEC);
    }
    wake_rd_ = fds[0];
    wake_wr_ = fds[1];
  }
}

EventLoop::~EventLoop() {
  set_recorder(nullptr);  // unregister the wheel metrics source
  if (wake_rd_ >= 0) ::close(wake_rd_);
  if (wake_wr_ >= 0 && wake_wr_ != wake_rd_) ::close(wake_wr_);
}

std::int64_t EventLoop::mono_now_us() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1000000 + ts.tv_nsec / 1000;
}

void EventLoop::watch_fd(int fd, std::function<void()> on_readable) {
  fd_handlers_[fd] = std::move(on_readable);
}

void EventLoop::unwatch_fd(int fd) { fd_handlers_.erase(fd); }

void EventLoop::set_recorder(obs::Recorder* recorder) {
  if (metrics_registry_ != nullptr) {
    metrics_registry_->unregister_source(wheel_source_);
    metrics_registry_ = nullptr;
    wheel_source_ = 0;
  }
  recorder_ = recorder;
  poll_eintr_ = nullptr;
  poll_errors_ = nullptr;
  if (recorder_ == nullptr || recorder_->registry() == nullptr) return;
  obs::Registry& reg = *recorder_->registry();
  poll_eintr_ = &reg.counter("evl.poll_eintr");
  poll_errors_ = &reg.counter("evl.poll_error");
  metrics_registry_ = &reg;
  wheel_source_ = reg.register_source(
      [this](std::map<std::string, std::uint64_t>& out) {
        const TimerWheel::Stats& s = timers_.stats();
        out["evl.wheel.size"] = timers_.size();
        out["evl.wheel.ready"] = timers_.ready_size();
        for (int level = 0; level < TimerWheel::kLevels; ++level)
          out["evl.wheel.level" + std::to_string(level)] =
              timers_.level_size(level);
        out["evl.wheel.scheduled"] = s.scheduled;
        out["evl.wheel.cancelled"] = s.cancelled;
        out["evl.wheel.rescheduled"] = s.rescheduled;
        out["evl.wheel.fired"] = s.fired;
        out["evl.wheel.cascades"] = s.cascades;
        out["evl.wheel.cascaded_timers"] = s.cascaded_timers;
      });
}

sim::EventId EventLoop::add_timer_at(std::int64_t mono_us,
                                     std::function<void()> fn) {
  const sim::EventId id = timers_.schedule(mono_us, std::move(fn));
  if (recorder_ != nullptr)
    recorder_->emit(obs::EvKind::timer_arm, 0, id,
                    static_cast<std::uint64_t>(mono_us));
  return id;
}

sim::EventId EventLoop::add_timer_after(sim::Duration d,
                                        std::function<void()> fn) {
  return add_timer_at(mono_now_us() + d, std::move(fn));
}

void EventLoop::cancel_timer(sim::EventId id) {
  if (timers_.cancel(id) && recorder_ != nullptr)
    recorder_->emit(obs::EvKind::timer_cancel, 0, id);
}

void EventLoop::post(std::function<void()> fn) {
  {
    const std::lock_guard lock(posted_mu_);
    posted_.push_back(std::move(fn));
  }
  // Wake a poll_once() that may be asleep in poll(2). Without this the
  // posted callback would wait out the full poll timeout (up to 100ms in
  // run()). EAGAIN just means the counter/pipe already holds a pending
  // wakeup, which is enough.
  if (wake_wr_ >= 0) {
    const std::uint64_t one = 1;
    [[maybe_unused]] const ssize_t n =
        ::write(wake_wr_, &one, sizeof(one));
  }
}

void EventLoop::drain_wakeup() {
  std::uint64_t buf[8];
  // One read resets an eventfd's counter; a pipe holds a byte per post
  // and is read until empty.
  if (wake_rd_ == wake_wr_) {
    [[maybe_unused]] const ssize_t n = ::read(wake_rd_, buf, sizeof(buf[0]));
    return;
  }
  while (::read(wake_rd_, buf, sizeof(buf)) > 0) {
  }
}

int EventLoop::dispatch_posted() {
  std::vector<std::function<void()>> batch;
  {
    const std::lock_guard lock(posted_mu_);
    batch.swap(posted_);
  }
  for (auto& fn : batch) fn();
  return static_cast<int>(batch.size());
}

int EventLoop::dispatch_due_timers() {
  // Re-read the clock after every callback: a handler that re-arms itself
  // for an already-due deadline (e.g. retransmit backoff of 0) fires again
  // in this same pass instead of stalling until the next poll timeout.
  // kMaxTimerDispatchPerPoll bounds the pass so an always-due re-arm chain
  // cannot starve fd handling.
  int dispatched = 0;
  while (dispatched < kMaxTimerDispatchPerPoll) {
    const std::int64_t now = mono_now_us();
    auto fired = timers_.pop_due(now);
    if (!fired.has_value()) break;
    if (recorder_ != nullptr)
      recorder_->emit(obs::EvKind::timer_fire, 0, fired->id,
                      static_cast<std::uint64_t>(now - fired->deadline));
    fired->fn();
    ++dispatched;
  }
  return dispatched;
}

namespace {

/// poll(2) the set for up to `wait_us`. ppoll(2) sleeps to the µs, so a
/// timer wakes the loop on its deadline; plain poll(2) takes whole
/// milliseconds and is rounded up (late, never early) where ppoll is
/// missing.
int wait_for_fds(std::vector<pollfd>& fds, std::int64_t wait_us) {
  const auto n = static_cast<nfds_t>(fds.size());
#if defined(__linux__) || defined(__FreeBSD__) || defined(__OpenBSD__) || \
    defined(__NetBSD__)
  timespec ts{};
  ts.tv_sec = static_cast<time_t>(wait_us / 1000000);
  ts.tv_nsec = static_cast<long>(wait_us % 1000000) * 1000;
  return ::ppoll(fds.data(), n, &ts, nullptr);
#else
  return ::poll(fds.data(), n, static_cast<int>((wait_us + 999) / 1000));
#endif
}

}  // namespace

int EventLoop::poll_once(sim::Duration max_wait_us) {
  int dispatched_posted = dispatch_posted();
  if (dispatched_posted > 0) max_wait_us = 0;  // don't sleep with work done
  // Bound the wait by the nearest timer: its exact deadline, or for a timer
  // parked above level 0 a lower bound just before its cascade (waking
  // there re-bounds).
  std::int64_t wait_us = std::max<std::int64_t>(max_wait_us, 0);
  const std::int64_t next_timer = timers_.next_time();
  if (next_timer != sim::kNever) {
    const std::int64_t until = next_timer - mono_now_us();
    wait_us = std::clamp<std::int64_t>(until, 0, wait_us);
  }
  // Cap the single-poll sleep: keeps the ms conversion of the poll(2)
  // fallback from overflowing for far-future waits, and bounds how stale
  // the timer re-bound can get. Waking early is a spurious (harmless)
  // wakeup.
  wait_us = std::min<std::int64_t>(
      wait_us, std::int64_t{kMaxPollTimeoutMs} * 1000);

  std::vector<pollfd>& fds = pollfds_;
  fds.clear();
  if (wake_rd_ >= 0) fds.push_back(pollfd{wake_rd_, POLLIN, 0});
  for (const auto& [fd, handler] : fd_handlers_)
    fds.push_back(pollfd{fd, POLLIN, 0});

  int dispatched = 0;
  const std::int64_t wait_deadline = mono_now_us() + wait_us;
  std::int64_t remaining_us = wait_us;
  int rc;
  for (;;) {
    rc = wait_for_fds(fds, remaining_us);
    if (rc >= 0) break;
    if (errno == EINTR) {
      // A signal (profiler, SIGCHLD, ...) interrupted the wait. Retry for
      // the remaining budget instead of silently treating it as a timeout
      // (which made every pending fd/timer wait out a whole extra pass).
      if (poll_eintr_ != nullptr) poll_eintr_->inc();
      remaining_us = std::max<std::int64_t>(wait_deadline - mono_now_us(), 0);
      continue;
    }
    // A hard poll failure (EINVAL/ENOMEM/EBADF...). Count it and fall
    // through to timer dispatch so the loop keeps making progress.
    if (poll_errors_ != nullptr) poll_errors_->inc();
    break;
  }
  if (rc > 0) {
    for (const auto& pfd : fds) {
      if ((pfd.revents & (POLLIN | POLLERR | POLLHUP)) == 0) continue;
      if (pfd.fd == wake_rd_) {
        drain_wakeup();
        if (recorder_ != nullptr) {
          std::size_t queued = 0;
          {
            const std::lock_guard lock(posted_mu_);
            queued = posted_.size();
          }
          recorder_->emit(obs::EvKind::post_wake, 0, queued);
        }
        continue;
      }
      const auto it = fd_handlers_.find(pfd.fd);
      if (it != fd_handlers_.end()) {
        it->second();
        ++dispatched;
      }
    }
  }
  dispatched += dispatch_due_timers();
  // A wakeup may have landed while poll was sleeping; run what it posted
  // now rather than a full poll cycle later.
  dispatched_posted += dispatch_posted();
  return dispatched + dispatched_posted;
}

void EventLoop::run() {
  stopped_ = false;
  while (!stopped_) poll_once(sim::msec(100));
}

void EventLoop::run_for(sim::Duration d) {
  stopped_ = false;
  const std::int64_t deadline = mono_now_us() + d;
  while (!stopped_) {
    const std::int64_t left = deadline - mono_now_us();
    if (left <= 0) break;
    poll_once(std::min<sim::Duration>(left, sim::msec(100)));
  }
}

}  // namespace tw::evl

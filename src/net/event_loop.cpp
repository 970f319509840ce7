#include "net/event_loop.hpp"

#include <sys/epoll.h>
#include <unistd.h>

#include <chrono>

#include "math/types.hpp"
#include "net/listener.hpp"

namespace maps::net {

namespace {

using Clock = std::chrono::steady_clock;

std::uint32_t to_epoll(std::uint32_t interest) {
  std::uint32_t ev = 0;
  if (interest & EventLoop::kRead) ev |= EPOLLIN;
  if (interest & EventLoop::kWrite) ev |= EPOLLOUT;
  return ev;
}

std::uint32_t from_epoll(std::uint32_t ev) {
  std::uint32_t mask = 0;
  if (ev & EPOLLIN) mask |= EventLoop::kRead;
  if (ev & EPOLLOUT) mask |= EventLoop::kWrite;
  // HUP/ERR are delivered regardless of interest; surface them as kError
  // plus kRead so read-driven handlers observe the EOF.
  if (ev & (EPOLLHUP | EPOLLERR)) mask |= EventLoop::kError | EventLoop::kRead;
  return mask;
}

}  // namespace

EventLoop::EventLoop() {
  require(::pipe(wake_pipe_) == 0, "EventLoop: pipe() failed");
  set_nonblocking(wake_pipe_[0]);
  set_nonblocking(wake_pipe_[1]);
  epoll_fd_ = ::epoll_create1(0);
  require(epoll_fd_ >= 0, "EventLoop: epoll_create1() failed");
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = wake_pipe_[0];
  require(::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_pipe_[0], &ev) == 0,
          "EventLoop: epoll_ctl(wake pipe) failed");
}

EventLoop::~EventLoop() {
  ::close(epoll_fd_);
  ::close(wake_pipe_[0]);
  ::close(wake_pipe_[1]);
}

void EventLoop::update_epoll(int fd, std::uint32_t interest, bool add) {
  epoll_event ev{};
  ev.events = to_epoll(interest);
  ev.data.fd = fd;
  const int op = add ? EPOLL_CTL_ADD : EPOLL_CTL_MOD;
  require(::epoll_ctl(epoll_fd_, op, fd, &ev) == 0,
          "EventLoop: epoll_ctl(add/mod) failed");
}

void EventLoop::add_fd(int fd, std::uint32_t interest, FdCallback cb) {
  require(fd >= 0, "EventLoop::add_fd: bad fd");
  require(fds_.count(fd) == 0, "EventLoop::add_fd: fd already registered");
  fds_[fd] = FdEntry{interest, std::move(cb)};
  update_epoll(fd, interest, /*add=*/true);
}

void EventLoop::set_interest(int fd, std::uint32_t interest) {
  auto it = fds_.find(fd);
  require(it != fds_.end(), "EventLoop::set_interest: fd not registered");
  if (it->second.interest == interest) return;
  it->second.interest = interest;
  update_epoll(fd, interest, /*add=*/false);
}

void EventLoop::remove_fd(int fd) {
  auto it = fds_.find(fd);
  if (it == fds_.end()) return;
  fds_.erase(it);
  epoll_event ev{};
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, &ev);
}

void EventLoop::wake() {
  const char b = 1;
  // Best effort: a full pipe already guarantees a pending wakeup.
  (void)!::write(wake_pipe_[1], &b, 1);
}

void EventLoop::post(std::function<void()> fn) {
  bool need_wake = false;
  {
    std::lock_guard lk(post_mu_);
    posted_.push_back(std::move(fn));
    need_wake = !wake_pending_;
    wake_pending_ = true;
  }
  if (need_wake) wake();
}

void EventLoop::stop() {
  post([this] { stop_ = true; });
}

void EventLoop::drain_posted() {
  std::vector<std::function<void()>> batch;
  {
    std::lock_guard lk(post_mu_);
    batch.swap(posted_);
    wake_pending_ = false;
  }
  for (auto& fn : batch) fn();
}

void EventLoop::run(const std::function<void()>& tick, double tick_ms) {
  stop_ = false;
  auto last_tick = Clock::now();
  const auto tick_period =
      std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double, std::milli>(tick_ms > 0 ? tick_ms : 50));

  while (!stop_) {
    int timeout_ms = 500;
    if (tick) {
      const auto next = last_tick + tick_period;
      const auto now = Clock::now();
      timeout_ms = next <= now
                       ? 0
                       : static_cast<int>(
                             std::chrono::duration_cast<std::chrono::milliseconds>(
                                 next - now)
                                 .count()) +
                             1;
    }

    // (fd, ready-mask) pairs collected this iteration.
    std::vector<std::pair<int, std::uint32_t>> ready;
    bool woke = false;
    epoll_event events[64];
    const int n = ::epoll_wait(epoll_fd_, events, 64, timeout_ms);
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      if (fd == wake_pipe_[0]) {
        woke = true;
      } else {
        ready.emplace_back(fd, from_epoll(events[i].events));
      }
    }

    if (woke) {
      char buf[256];
      while (::read(wake_pipe_[0], buf, sizeof(buf)) > 0) {
      }
    }
    drain_posted();

    for (const auto& [fd, mask] : ready) {
      if (stop_) break;
      auto it = fds_.find(fd);
      if (it == fds_.end()) continue;  // removed by an earlier callback
      // Copy: the callback may remove_fd(fd), destroying the entry.
      FdCallback cb = it->second.cb;
      cb(mask);
    }

    if (tick && Clock::now() - last_tick >= tick_period) {
      last_tick = Clock::now();
      tick();
    }
  }
}

}  // namespace maps::net

// Single-threaded readiness event loop for the HTTP serve front end.
//
// One thread calls run(); every registered fd callback executes on that
// thread, so connection state needs no locking. Other threads (task-queue
// workers finishing a prediction) hand work back with post(), which enqueues
// a closure and wakes the loop through a self-pipe — the only cross-thread
// channel, and the only locked structure.
//
// Backend: epoll (the repo builds on Linux only), level-triggered: a
// callback that doesn't drain its fd is simply called again, which keeps the
// connection state machines simple and fair under pipelining.
#pragma once

#include <cstdint>
#include <functional>
#include <mutex>
#include <unordered_map>
#include <vector>

namespace maps::net {

class EventLoop {
 public:
  /// Readiness bitmask for set_interest / callbacks.
  static constexpr std::uint32_t kRead = 1u << 0;
  static constexpr std::uint32_t kWrite = 1u << 1;
  /// Reported to callbacks only (HUP/ERR); never requested.
  static constexpr std::uint32_t kError = 1u << 2;

  using FdCallback = std::function<void(std::uint32_t events)>;

  /// Throws MapsError when the epoll instance or the wake pipe cannot be
  /// created.
  EventLoop();
  ~EventLoop();
  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Register `fd` with an initial interest set. The callback runs on the
  /// loop thread with the ready-event mask. Must not already be registered.
  void add_fd(int fd, std::uint32_t interest, FdCallback cb);
  /// Change the interest set (0 parks the fd: stays registered, never polled
  /// ready — used to pause reads for backpressure).
  void set_interest(int fd, std::uint32_t interest);
  /// Deregister. Safe from inside the fd's own callback; the loop skips any
  /// still-pending readiness for it this iteration. Does not close the fd.
  void remove_fd(int fd);
  bool has_fd(int fd) const { return fds_.count(fd) != 0; }
  std::size_t fd_count() const { return fds_.size(); }

  /// Thread-safe: queue `fn` to run on the loop thread and wake it. Closures
  /// queued after run() returns are destroyed unexecuted.
  void post(std::function<void()> fn);

  /// Run until stop(). `tick` (optional) fires on the loop thread roughly
  /// every `tick_ms` — the HTTP server uses it to poll its drain flag.
  void run(const std::function<void()>& tick = {}, double tick_ms = 50.0);

  /// Thread-safe: make run() return after the current iteration.
  void stop();

 private:
  struct FdEntry {
    std::uint32_t interest = 0;
    FdCallback cb;
  };

  void wake();
  void drain_posted();
  void update_epoll(int fd, std::uint32_t interest, bool add);

  std::unordered_map<int, FdEntry> fds_;
  int epoll_fd_ = -1;
  int wake_pipe_[2] = {-1, -1};
  bool stop_ = false;

  std::mutex post_mu_;
  std::vector<std::function<void()>> posted_;
  bool wake_pending_ = false;  // coalesce wake-pipe writes
};

}  // namespace maps::net

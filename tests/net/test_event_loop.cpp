// net layer: EventLoop readiness dispatch, cross-thread post, interest
// masks.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "net/event_loop.hpp"

using maps::net::EventLoop;

namespace {

struct Pipe {
  int fds[2] = {-1, -1};
  Pipe() { EXPECT_EQ(::pipe(fds), 0); }
  ~Pipe() {
    ::close(fds[0]);
    ::close(fds[1]);
  }
  int reader() const { return fds[0]; }
  int writer() const { return fds[1]; }
};

}  // namespace

TEST(EventLoop, DispatchesReadReadiness) {
  EventLoop loop;
  Pipe pipe;
  std::string got;
  loop.add_fd(pipe.reader(), EventLoop::kRead, [&](std::uint32_t events) {
    EXPECT_TRUE(events & EventLoop::kRead);
    char buf[16];
    const ssize_t n = ::read(pipe.reader(), buf, sizeof(buf));
    ASSERT_GT(n, 0);
    got.assign(buf, static_cast<std::size_t>(n));
    loop.stop();
  });
  ASSERT_EQ(::write(pipe.writer(), "ping", 4), 4);
  loop.run();
  EXPECT_EQ(got, "ping");
  EXPECT_EQ(loop.fd_count(), 1u);
  loop.remove_fd(pipe.reader());
  EXPECT_EQ(loop.fd_count(), 0u);
}

TEST(EventLoop, PostFromAnotherThreadWakesTheLoop) {
  EventLoop loop;
  std::atomic<bool> ran{false};
  std::thread poster([&] {
    loop.post([&] {
      ran.store(true);
      loop.stop();
    });
  });
  loop.run();
  poster.join();
  EXPECT_TRUE(ran.load());
}

TEST(EventLoop, ZeroInterestParksTheFd) {
  EventLoop loop;
  Pipe pipe;
  std::atomic<int> fired{0};
  loop.add_fd(pipe.reader(), EventLoop::kRead,
              [&](std::uint32_t) { fired.fetch_add(1); });
  ASSERT_EQ(::write(pipe.writer(), "x", 1), 1);
  loop.set_interest(pipe.reader(), 0);  // parked: readable but never polled
  int ticks = 0;
  loop.run(
      [&] {
        if (++ticks >= 3) loop.stop();
      },
      5.0);
  EXPECT_EQ(fired.load(), 0);
  // Re-arm: the level-triggered backend reports the still-pending byte.
  loop.set_interest(pipe.reader(), EventLoop::kRead);
  loop.run(
      [&] {
        if (fired.load() > 0) loop.stop();
      },
      5.0);
  EXPECT_GE(fired.load(), 1);
  char c;
  ASSERT_EQ(::read(pipe.reader(), &c, 1), 1);
  loop.remove_fd(pipe.reader());
}

TEST(EventLoop, CallbackMayRemoveItsOwnFd) {
  EventLoop loop;
  Pipe a, b;
  std::atomic<int> events{0};
  for (int fd : {a.reader(), b.reader()}) {
    loop.add_fd(fd, EventLoop::kRead, [&, fd](std::uint32_t) {
      events.fetch_add(1);
      loop.remove_fd(fd);  // destroys the registered callback mid-dispatch
      if (loop.fd_count() == 0) loop.stop();
    });
  }
  ASSERT_EQ(::write(a.writer(), "x", 1), 1);
  ASSERT_EQ(::write(b.writer(), "x", 1), 1);
  loop.run();
  EXPECT_EQ(events.load(), 2);
  EXPECT_EQ(loop.fd_count(), 0u);
}

TEST(EventLoop, TickFiresRoughlyOnPeriod) {
  EventLoop loop;
  int ticks = 0;
  loop.run(
      [&] {
        if (++ticks >= 5) loop.stop();
      },
      2.0);
  EXPECT_GE(ticks, 5);
}

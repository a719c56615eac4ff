// The cross-thread EventLoop seams that --net-loops transport threads rely
// on, exercised with real threads (run under ThreadSanitizer in CI):
//
//   - EventLoop::post() from concurrent producers: thread-safe, FIFO per
//     producer, runs on the loop thread, wakes a sleeping loop.
//   - EventLoop::stop() from another thread wakes epoll promptly.
//   - EventLoop::stop() before run() is not lost.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <thread>
#include <vector>

#include "net/event_loop.hpp"

namespace dl {
namespace {

TEST(ThreadedEnv, CrossThreadPostIsFifoPerProducerOnTheLoopThread) {
  net::EventLoop loop;
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 500;

  std::vector<int> last_seen(kProducers, -1);  // loop-thread state, no lock
  std::atomic<int> received{0};
  std::atomic<bool> off_loop_execution{false};

  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        loop.post([&, p, i] {
          if (!loop.in_loop_thread()) {
            off_loop_execution.store(true, std::memory_order_relaxed);
          }
          EXPECT_EQ(last_seen[static_cast<std::size_t>(p)], i - 1);
          last_seen[static_cast<std::size_t>(p)] = i;
          received.fetch_add(1, std::memory_order_relaxed);
        });
      }
    });
  }

  // Poll until everything arrived; a watchdog fails the test rather than
  // hanging forever if a task is lost.
  std::function<void()> poll = [&] {
    if (received.load(std::memory_order_relaxed) == kProducers * kPerProducer) {
      loop.stop();
      return;
    }
    loop.after(0.002, poll);
  };
  loop.after(0.0, poll);
  bool timed_out = false;
  loop.after(30.0, [&] {
    timed_out = true;
    loop.stop();
  });
  loop.run();
  for (auto& t : producers) t.join();

  ASSERT_FALSE(timed_out);
  EXPECT_EQ(received.load(), kProducers * kPerProducer);
  EXPECT_FALSE(off_loop_execution.load());
  for (int p = 0; p < kProducers; ++p) {
    EXPECT_EQ(last_seen[static_cast<std::size_t>(p)], kPerProducer - 1);
  }
}

TEST(ThreadedEnv, StopFromAnotherThreadWakesASleepingLoop) {
  net::EventLoop loop;
  // No timers, no fds: run() parks in epoll_wait indefinitely until the
  // cross-thread stop()'s eventfd kick wakes it.
  std::thread runner([&] { loop.run(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  const auto stop_at = std::chrono::steady_clock::now();
  loop.stop();
  runner.join();
  const double waited =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - stop_at)
          .count();
  // Promptly = the eventfd wake, not some fallback poll timeout.
  EXPECT_LT(waited, 1.0);
  // run() consumed the stop request on exit: the loop is re-runnable.
  EXPECT_FALSE(loop.stopped());
}

TEST(ThreadedEnv, StopBeforeRunIsNotLost) {
  // The spawn-then-stop race: a stop() issued before run() ever starts must
  // make that run() return immediately, not be silently discarded.
  net::EventLoop loop;
  loop.stop();
  EXPECT_TRUE(loop.stopped());
  bool ran_task = false;
  loop.post([&] { ran_task = true; });
  loop.run();  // returns without dispatching anything
  EXPECT_FALSE(ran_task);

  // The pending request was consumed, so a subsequent run() proceeds
  // normally and drains the mailbox.
  EXPECT_FALSE(loop.stopped());
  loop.post([&loop] { loop.stop(); });
  loop.run();
  EXPECT_TRUE(ran_task);
}

}  // namespace
}  // namespace dl

// MpscQueue — the lock-free mailbox behind EventLoop::post.
//
// The properties pinned here are exactly the ones EventLoop relies on (see
// the contract comment in net/mpsc_queue.hpp): per-producer FIFO, no lost
// or duplicated tasks under producer contention, maybe_nonempty() covering
// the mid-push window, destroy-not-run teardown, and pool exhaustion
// degrading to heap nodes rather than blocking. The multi-producer stress
// cases run in the TSan CI job.
#include "net/mpsc_queue.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

namespace dl::net {
namespace {

TEST(MpscQueue, SingleThreadFifo) {
  MpscQueue q;
  std::vector<int> got;
  for (int i = 0; i < 100; ++i) {
    q.push([&got, i] { got.push_back(i); });
  }
  EXPECT_TRUE(q.maybe_nonempty());
  MpscQueue::Task t;
  while (q.pop(t)) t();
  ASSERT_EQ(got.size(), 100u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(got[static_cast<std::size_t>(i)], i);
  EXPECT_FALSE(q.maybe_nonempty());
}

TEST(MpscQueue, DrainAppendsInOrder) {
  MpscQueue q;
  std::vector<int> got;
  for (int i = 0; i < 10; ++i) q.push([&got, i] { got.push_back(i); });
  MpscQueue::Batch batch;
  q.drain(batch);
  ASSERT_EQ(batch.size(), 10u);
  for (auto& t : batch) t();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(got[static_cast<std::size_t>(i)], i);
}

// N producers race 20k pushes each; the consumer drains concurrently. Every
// task must run exactly once, and each producer's tasks must arrive in that
// producer's push order.
TEST(MpscQueue, MultiProducerStressFifoPerProducer) {
  constexpr int kProducers = 4;
  constexpr std::uint64_t kPerProducer = 20'000;
  MpscQueue q;

  // Consumed records: (producer, seq), applied consumer-side only.
  std::vector<std::uint64_t> last_seq(kProducers, 0);
  std::atomic<std::uint64_t> consumed{0};
  std::atomic<bool> go{false};

  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&q, &go, &last_seq, &consumed, p] {
      while (!go.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
      for (std::uint64_t seq = 1; seq <= kPerProducer; ++seq) {
        q.push([&last_seq, &consumed, p, seq] {
          // FIFO per producer: each seq must follow its predecessor.
          ASSERT_EQ(last_seq[static_cast<std::size_t>(p)] + 1, seq);
          last_seq[static_cast<std::size_t>(p)] = seq;
          consumed.fetch_add(1, std::memory_order_relaxed);
        });
      }
    });
  }

  go.store(true, std::memory_order_release);
  MpscQueue::Batch batch;
  while (consumed.load(std::memory_order_relaxed) <
         kProducers * kPerProducer) {
    q.drain(batch);
    if (batch.empty()) {
      std::this_thread::yield();  // 1-core CI: let the producers run
      continue;
    }
    for (auto& t : batch) t();
    batch.clear();
  }
  for (auto& t : producers) t.join();

  EXPECT_EQ(consumed.load(), kProducers * kPerProducer);
  for (int p = 0; p < kProducers; ++p) {
    EXPECT_EQ(last_seq[static_cast<std::size_t>(p)], kPerProducer);
  }
  EXPECT_FALSE(q.maybe_nonempty());
}

// Destroying a queue with tasks still linked destroys the closures without
// running them — loop teardown must not execute stale cross-thread posts.
TEST(MpscQueue, TeardownDestroysWithoutRunning) {
  std::atomic<int> ran{0};
  auto guard = std::make_shared<int>(7);  // leak-checked via use_count
  {
    MpscQueue q;
    for (int i = 0; i < 16; ++i) {
      q.push([&ran, guard] { ran.fetch_add(1); });
    }
  }
  EXPECT_EQ(ran.load(), 0);
  EXPECT_EQ(guard.use_count(), 1);  // every captured copy was destroyed
}

// A tiny pool outrun by pushes falls back to heap nodes (counted), never
// drops a task, and recycles pool nodes so a drain makes them reusable.
TEST(MpscQueue, PoolExhaustionFallsBackToHeap) {
  MpscQueue q(4);
  int ran = 0;
  for (int i = 0; i < 64; ++i) q.push([&ran] { ++ran; });
  EXPECT_GE(q.heap_node_allocs(), 64u - 4u - 1u);  // stub arithmetic slack
  MpscQueue::Task t;
  while (q.pop(t)) t();
  EXPECT_EQ(ran, 64);

  // Pool nodes were recycled: a small second burst needs no new heap nodes.
  const std::uint64_t heap_before = q.heap_node_allocs();
  for (int i = 0; i < 3; ++i) q.push([&ran] { ++ran; });
  while (q.pop(t)) t();
  EXPECT_EQ(ran, 67);
  EXPECT_EQ(q.heap_node_allocs(), heap_before);
}

// The wake contract: once a push() call has RETURNED on a foreign thread,
// the consumer must either pop the task or see maybe_nonempty() == true —
// a consumer that re-checks before sleeping can never strand it. Exercised
// round by round: the producer signals after each completed push, the
// consumer asserts visibility at that instant.
TEST(MpscQueue, CompletedPushIsAlwaysVisible) {
  constexpr std::uint64_t kRounds = 2'000;
  MpscQueue q;
  std::atomic<std::uint64_t> push_done{0};
  std::atomic<std::uint64_t> pop_done{0};
  std::thread producer([&] {
    for (std::uint64_t r = 1; r <= kRounds; ++r) {
      q.push([] {});
      push_done.store(r, std::memory_order_release);
      while (pop_done.load(std::memory_order_acquire) < r) {
        std::this_thread::yield();
      }
    }
  });

  MpscQueue::Task t;
  for (std::uint64_t r = 1; r <= kRounds; ++r) {
    while (push_done.load(std::memory_order_acquire) < r) {
      std::this_thread::yield();
    }
    // The push has returned: the task must be visible right now, possibly
    // only through maybe_nonempty() (mid-link), in which case a retry pops.
    bool popped = q.pop(t);
    while (!popped) {
      ASSERT_TRUE(q.maybe_nonempty());
      popped = q.pop(t);
    }
    t();
    pop_done.store(r, std::memory_order_release);
  }
  producer.join();
  EXPECT_FALSE(q.maybe_nonempty());
}

}  // namespace
}  // namespace dl::net

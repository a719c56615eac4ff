// Epoll event loop with timerfd-backed timers and a thread-safe mailbox.
//
// This is the real-time analogue of sim::EventQueue: a clock that starts
// near zero, ordered timers, and fd readiness callbacks. A process may run
// several loops (dlnoded's home loop plus its --net-loops replica transport
// loops); all loops in one process share a single clock epoch, so `now()`
// values taken on different loops are directly comparable (cross-loop stage
// timing depends on this).
//
// Threading contract (enforced by convention, checked under TSan):
//
//   loop-affine — callable only from the loop thread, or from any thread
//   before run() starts / after it returns:
//     now() (reads are safe anywhere; listed for completeness: always safe),
//     at(), after(), cancel_timer(), add_fd(), mod_fd(), del_fd(), run()
//
//   thread-safe — callable from any thread at any time:
//     post()  — enqueues fn into a lock-free MPSC mailbox (net::MpscQueue)
//               and kicks an eventfd so a sleeping loop wakes immediately;
//               tasks run FIFO per posting thread on the loop thread, never
//               inline in the caller. Wakes are collapsed: under a post
//               storm only the first post after a loop iteration pays the
//               eventfd write syscall (wake_pending_).
//     stop()  — atomically requests shutdown and kicks the eventfd; a loop
//               blocked in epoll_wait returns promptly. Sticky: a stop()
//               issued before run() even starts makes that run() return
//               immediately instead of being lost. run() consumes the
//               pending request when it returns, so the loop is re-runnable.
//     stopped(), in_loop_thread()
//
// Cross-thread interaction with loop-affine state therefore goes through
// post(): `loop.post([&]{ loop.after(...); })`.
//
// Timers keep the EventQueue contract: a (time, sequence) min-heap ordered
// FIFO among equal deadlines, O(1) cancellation by id, and a single timerfd
// armed to the earliest live deadline so the loop sleeps in epoll_wait
// without polling.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <queue>
#include <thread>
#include <unordered_map>
#include <vector>

#include "net/mpsc_queue.hpp"

namespace dl::obs {
class Histogram;
}  // namespace dl::obs

namespace dl::net {

class EventLoop {
 public:
  EventLoop();  // throws std::runtime_error if epoll/timerfd/eventfd creation fails
  ~EventLoop();
  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  // Seconds since the process clock epoch (CLOCK_MONOTONIC, anchored when
  // the first EventLoop of the process is constructed). Shared across all
  // loops in the process so cross-loop timestamps are comparable.
  double now() const;

  // Timers (loop-affine). `at` is absolute loop time (clamped to now),
  // `after` relative. Ids are never reused; 0 is never returned.
  std::uint64_t at(double t, std::function<void()> fn);
  std::uint64_t after(double delay, std::function<void()> fn);
  // False if the timer already fired or was cancelled. Loop-affine.
  bool cancel_timer(std::uint64_t id);

  // Runs `fn` on a later loop iteration, FIFO per posting thread, never
  // inline. Thread-safe: this is the one sanctioned way to hand work to
  // another loop's thread. Callables up to sim::InlineTask::kInlineBytes
  // (64) that are nothrow-movable are stored in place — no allocation.
  template <typename F>
  void post(F&& fn) {
    mailbox_.push(std::forward<F>(fn));
    // The loop thread re-checks the mailbox before sleeping, so only other
    // threads need the eventfd kick — and only the first post since the
    // loop's last wake_pending_ clear pays the RMW + write syscall; during a
    // burst every later post gets away with the plain seq_cst load (free on
    // x86). Safety is a Dekker argument in the seq_cst total order: if this
    // load does NOT observe the loop's clear, it — and the push's tail
    // exchange before it — precede the clear in that order, so the loop's
    // pre-sleep posted_empty() re-check (after the clear) must see the push.
    // If it DOES observe the clear (false), we take the exchange, and the
    // first such producer wins the false and kicks the eventfd.
    if (!in_loop_thread() &&
        !wake_pending_.load(std::memory_order_seq_cst) &&
        !wake_pending_.exchange(true, std::memory_order_seq_cst)) {
      wake();
    }
  }

  // Fd readiness callbacks (EPOLLIN/EPOLLOUT/... bitmask from epoll).
  // Loop-affine.
  using FdHandler = std::function<void(std::uint32_t events)>;
  void add_fd(int fd, std::uint32_t events, FdHandler h);
  void mod_fd(int fd, std::uint32_t events);
  void del_fd(int fd);  // unregister only; does not close

  // Dispatches until stop() is called (returns immediately if a stop is
  // already pending — a pre-run stop() is never lost). Consumes the stop
  // request on return, so the loop may be run() again. Records the running
  // thread so in_loop_thread() works while the loop spins.
  void run();
  // Thread-safe: requests shutdown and wakes a loop sleeping in epoll_wait.
  // Callable at any time, including before run() starts (see above).
  void stop();
  // True while a stop request is pending, i.e. from stop() until the run()
  // that observes it returns.
  bool stopped() const { return stop_.load(std::memory_order_acquire); }
  // True when the calling thread is currently inside this loop's run().
  bool in_loop_thread() const {
    return loop_thread_.load(std::memory_order_acquire) == std::this_thread::get_id();
  }

  // Always-on loop health counters, readable live from any thread (relaxed
  // atomics). Everything except `wakes` is written only by the loop thread;
  // `wakes` counts eventfd kick syscalls from posting threads. None of this
  // touches the post() fast path — the BENCH_micro_loop CI gate stands.
  struct LoopStats {
    std::atomic<std::uint64_t> polls{0};   // epoll_wait returns
    std::atomic<std::uint64_t> wakes{0};   // eventfd write syscalls
    std::atomic<std::uint64_t> drains{0};  // mailbox drain passes with work
    std::atomic<std::uint64_t> tasks{0};   // posted tasks executed
    std::atomic<std::uint64_t> timers{0};  // timer callbacks fired
    // Tasks consumed by the most recent drain pass: a live proxy for
    // mailbox depth (the MPSC queue itself is unbounded and uncounted).
    std::atomic<std::uint64_t> last_drain_tasks{0};
  };
  const LoopStats& stats() const { return stats_; }

  // Optional callback-latency histogram (microseconds per fd handler /
  // timer callback / drain pass). Loop-affine: set before run() starts.
  // Null (the default) keeps the timing clock reads off entirely.
  void set_task_histogram(obs::Histogram* h) { task_hist_ = h; }

 private:
  void arm_timerfd();
  void run_due_timers();
  void drain_posted();
  void wake();
  bool posted_empty() const;

  int ep_ = -1;
  int tfd_ = -1;
  int wake_fd_ = -1;  // eventfd: written by post()/stop(), drained by run()
  double t0_ = 0;
  std::atomic<bool> stop_{false};
  std::atomic<std::thread::id> loop_thread_{};

  struct Due {
    double t;
    std::uint64_t id;  // doubles as FIFO tiebreaker: ids are monotonic
    bool operator>(const Due& o) const {
      if (t != o.t) return t > o.t;
      return id > o.id;
    }
  };
  std::uint64_t next_timer_id_ = 1;
  std::priority_queue<Due, std::vector<Due>, std::greater<Due>> due_;
  std::unordered_map<std::uint64_t, std::function<void()>> timers_;  // live

  // Each registration gets a generation stamp carried in the epoll event:
  // if an fd is closed and the number reused within one epoll_wait batch,
  // the stale event's generation no longer matches and is discarded.
  struct FdEntry {
    std::uint32_t gen = 0;
    FdHandler handler;
  };
  std::uint32_t next_fd_gen_ = 1;
  std::unordered_map<int, FdEntry> fds_;

  // Mailbox: lock-free, pooled InlineTask nodes. Drained via consume(),
  // which runs tasks straight out of their nodes — no batch vector, no
  // per-task move.
  MpscQueue mailbox_;
  std::atomic<bool> wake_pending_{false};

  LoopStats stats_;
  obs::Histogram* task_hist_ = nullptr;
};

}  // namespace dl::net

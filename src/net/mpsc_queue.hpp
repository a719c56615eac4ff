// Lock-free MPSC mailbox for EventLoop::post.
//
// MpscQueue is a Vyukov-style intrusive multi-producer/single-consumer
// queue: producers link nodes with one atomic exchange on the tail plus one
// release store of the predecessor's next pointer; the consumer walks the
// chain without any lock. Tasks are stored as sim::InlineTask (64 bytes of
// in-place storage), so a typical cross-thread post — a lambda over a few
// pointers and a shared_ptr — performs no allocation at all: nodes come
// from a fixed slab recycled through an ABA-tagged free stack, and the task
// lives inside the node.
//
// Progress/order guarantees (what EventLoop relies on):
//   * per-producer FIFO: two pushes by one thread dequeue in push order;
//   * a completed push is eventually visible: pop() may transiently return
//     false while a producer is between its tail exchange and its next-link
//     store, but maybe_nonempty() reports true during that window, so a
//     consumer that re-checks before sleeping never strands a task;
//   * pool exhaustion degrades to heap nodes (freed on consume), never to
//     blocking or dropping — the pool bounds allocation, not the queue.
//
// Teardown: a destroyed queue destroys (does not run) still-queued tasks,
// matching the old behavior of dropping a posted_ vector on loop teardown.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "sim/task.hpp"

namespace dl::net {

class MpscQueue {
 public:
  using Task = sim::InlineTask;
  using Batch = std::vector<Task>;

  // `pool_nodes` bounds the allocation-free working set, not the queue.
  explicit MpscQueue(std::size_t pool_nodes = kDefaultPoolNodes);
  ~MpscQueue();
  MpscQueue(const MpscQueue&) = delete;
  MpscQueue& operator=(const MpscQueue&) = delete;

  // ~1MB of nodes per loop: deep enough that producers bursting a full
  // scheduler quantum ahead of a preempted consumer (single-core hosts) stay
  // on the allocation-free path.
  static constexpr std::size_t kDefaultPoolNodes = 8192;

  // Any thread. Wait-free except for the free-stack CAS loop.
  template <typename F>
  void push(F&& fn) {
    Node* n = acquire_node();
    n->task.emplace(std::forward<F>(fn));
    push_node(n);
  }

  // Consumer only: moves the next task out. False when the queue is empty
  // OR a producer's push is mid-flight (see maybe_nonempty()).
  bool pop(Task& out);

  // Consumer only: pops everything currently linked into `out` (appended).
  void drain(Batch& out);

  // Consumer only: runs queued tasks IN PLACE (no move into a batch vector)
  // and returns how many ran. Bounded by a snapshot of the tail taken on
  // entry: tasks pushed during the call — including pushes made by the tasks
  // themselves — stay queued for the next pass, so a self-posting task
  // cannot starve the caller. This is EventLoop's drain path.
  std::size_t consume();

  // Consumer only. True whenever a task is — or is about to be — queued;
  // may be transiently true for an in-flight push whose pop() still fails.
  // The consumer must treat true as "do not sleep".
  bool maybe_nonempty() const;

  // Cumulative count of pushes that outran the node pool (diagnostics).
  std::uint64_t heap_node_allocs() const {
    return heap_node_allocs_.load(std::memory_order_relaxed);
  }

 private:
  static constexpr std::uint32_t kNilIndex = 0xFFFFFFFFu;   // empty free list
  static constexpr std::uint32_t kHeapIndex = 0xFFFFFFFEu;  // not pool-owned

  struct Node {
    std::atomic<Node*> next{nullptr};
    // Link in the free stack; atomic because a racing acquire_node may read
    // it while another producer pops the node (the tagged CAS then fails).
    std::atomic<std::uint32_t> free_next{kNilIndex};
    std::uint32_t index = kHeapIndex;
    Task task;
  };

  Node* acquire_node();
  void recycle(Node* n);
  // Consumer only: unlinks the front node, leaving its task in place for the
  // caller to move out (pop) or invoke directly (consume). Nullptr when the
  // queue is empty or a producer's push is mid-flight.
  Node* pop_node_keep();
  // Consumer only: pops one task, returning its (un-recycled) node so
  // drain() can splice consumed nodes back in one batch.
  Node* pop_node(Task& out);
  // Splices a free_next-linked chain of pool nodes back onto the free stack
  // with a single tagged CAS — the free stack is the cache line every
  // producer hammers, so batch drains touch it once, not once per node.
  void splice_free_chain(Node* chain_head, Node* chain_tail);
  void push_node(Node* n) {
    n->next.store(nullptr, std::memory_order_relaxed);
    // seq_cst, not acq_rel: the single total order is what lets a producer
    // skip the wake RMW after seeing wake_pending_ already set — either its
    // flag load observes the consumer's clear (and it kicks the eventfd), or
    // this exchange precedes the clear in the total order and the consumer's
    // pre-sleep maybe_nonempty() is guaranteed to see the push. On x86 a
    // seq_cst exchange costs the same lock-prefixed instruction as acq_rel.
    Node* prev = tail_.exchange(n, std::memory_order_seq_cst);
    // Completes the link. Until this lands, the queue is "blocked" at prev:
    // pop() returns false and maybe_nonempty() reports true.
    prev->next.store(n, std::memory_order_release);
  }

  // Free stack head: {32-bit ABA tag | 32-bit slab index}. Tag increments on
  // every successful push AND pop, so a node recycled between a competing
  // producer's head load and its CAS cannot be mistaken for unchanged state.
  std::atomic<std::uint64_t> free_head_{
      static_cast<std::uint64_t>(kNilIndex)};
  std::unique_ptr<Node[]> slab_;
  std::size_t slab_size_ = 0;
  std::atomic<std::uint64_t> heap_node_allocs_{0};

  alignas(64) std::atomic<Node*> tail_;
  alignas(64) Node* head_;  // consumer-owned
  Node stub_;
};

}  // namespace dl::net

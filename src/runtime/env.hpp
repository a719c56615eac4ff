// Runtime abstraction: the seam between protocol logic and the world.
//
// dl::core::DlNode (and everything layered on it) talks to its surroundings
// exclusively through this interface — a clock, timers, peer-addressed
// envelope delivery, and an executor seam for CPU-heavy work. Two backends
// implement it:
//
//   runtime::SimEnv  — the deterministic discrete-event simulator (virtual
//                      time, FluidLink bandwidth model); every experiment
//                      and test runs here, exactly reproducibly.
//   net::TcpEnv      — real sockets: an epoll event loop, length-prefixed
//                      frames over per-peer TCP connections, wall-clock
//                      timers. `dlnoded` runs replicas on this backend.
//
// The same node object is bit-for-bit the same protocol state machine on
// both; only delivery timing differs. Keep this interface small — anything a
// node can compute locally does not belong here.
//
// ## Threading contract
//
// Every Env has a *home loop*: the single thread that runs the Receiver's
// callbacks (SimEnv: the simulation thread; TcpEnv: the EventLoop thread).
// Per method:
//
//   method        | affinity     | notes
//   --------------|--------------|------------------------------------------
//   local_id      | any thread   | immutable after construction
//   cluster_size  | any thread   | immutable after construction
//   now           | any thread   | all loops in a process share one epoch
//   at/after      | home loop    | timer callbacks fire on the home loop
//   cancel_timer  | home loop    |
//   send/broadcast| home loop    |
//   cancel_send   | home loop    |
//   defer         | any thread   | fn runs later on the home loop, never
//                 |              | inline in the caller
//   offload       | home loop    | see below
//
// offload(work, done): `work` is a closure over value-captured inputs that
// must not touch node or Env state; `done` runs on the home loop after
// `work` returns and may touch everything. Both shipped backends run the
// two synchronously inline — coding is cheap next to the bandwidth a
// replica waits on, and the inline schedule is what keeps the simulator
// deterministic. The continuation style stays so callers are written to
// be correct under a deferred `done` too (a wrapping Env such as a tracer
// may label or time the two halves separately).
//
// The Receiver is injected at start time (TcpEnv::start(Receiver&),
// SimEnv::attach(Receiver&)) — there is no mutable bind() — so by the time
// any callback can fire, the receiver wiring is already published to every
// thread involved.
//
// A backend may run additional private threads below this contract — TcpEnv
// with `--net-loops K` owns K transport loops that do socket I/O — but those
// are invisible here: send/broadcast are still called only on the home loop,
// and on_receive still fires only on the home loop. Cross-loop handoff is
// the backend's problem.
#pragma once

#include <cstdint>
#include <functional>

#include "common/envelope.hpp"

namespace dl::runtime {

// Traffic class of an outgoing message. High is dispersal + agreement
// traffic, Low is retrieval — the paper's MulTcp-style prioritization (§5).
enum class TrafficClass : std::uint8_t { High = 0, Low = 1 };

struct SendOpts {
  TrafficClass cls = TrafficClass::High;
  std::uint64_t order = 0;  // Low-class scheduling key (lower first)
  std::uint64_t tag = 0;    // cancellation handle; 0 = not cancellable
};

// Names a scheduled timer; 0 is never a live timer.
using TimerId = std::uint64_t;

// What a node looks like to its Env: started once, then fed datagrams.
// `bytes` is one whole envelope encoding (framing already stripped); the
// receiver owns decoding and must treat the content as untrusted. All
// callbacks arrive on the Env's home loop.
class Receiver {
 public:
  virtual ~Receiver() = default;
  virtual void start() {}
  virtual void on_receive(int from, ByteView bytes) = 0;
};

class Env {
 public:
  virtual ~Env() = default;

  // Identity within the cluster. Any thread.
  virtual int local_id() const = 0;
  virtual int cluster_size() const = 0;

  // Clock, in seconds. Virtual time on the simulator, monotonic wall time
  // on real backends; starts near 0 either way. Any thread.
  virtual double now() const = 0;

  // Timers (home loop only). `at` schedules at an absolute time (>= now),
  // `after` relative to now. cancel_timer returns false if the timer
  // already fired, was already cancelled, or never existed.
  virtual TimerId at(double t, std::function<void()> fn) = 0;
  virtual TimerId after(double delay, std::function<void()> fn) = 0;
  virtual bool cancel_timer(TimerId id) = 0;

  // Envelope delivery (home loop only). `send` to self is legal and loops
  // back without touching the network (asynchronously: the receiver is
  // never re-entered from inside its own call stack). `broadcast` sends to
  // every node including the sender, encoding the envelope once.
  virtual void send(int to, const Envelope& env, const SendOpts& opts) = 0;
  virtual void broadcast(const Envelope& env, const SendOpts& opts) = 0;

  // Move-aware variants: a backend that can reference the envelope body
  // instead of copying it (TcpEnv's scatter-gather path) overrides these to
  // steal `env`. The defaults forward to the copying versions, so SimEnv
  // and test doubles stay byte-for-byte unchanged. Callers that are done
  // with the envelope should prefer these.
  virtual void send(int to, Envelope&& env, const SendOpts& opts) {
    send(to, static_cast<const Envelope&>(env), opts);
  }
  virtual void broadcast(Envelope&& env, const SendOpts& opts) {
    broadcast(static_cast<const Envelope&>(env), opts);
  }

  // Best-effort retraction of not-yet-transmitted Low-class messages
  // carrying `tag` (the §6.3 "stop sending chunks once decoded" path).
  // Home loop only.
  virtual void cancel_send(std::uint64_t tag) = 0;

  // Executor seam. defer() is the thread-safe way back to the home loop;
  // offload() runs CPU-heavy, state-free `work` and then `done` inline on
  // the home loop (see the threading contract above).
  virtual void defer(std::function<void()> fn) = 0;
  virtual void offload(std::function<void()> work, std::function<void()> done) {
    work();
    done();
  }
};

}  // namespace dl::runtime

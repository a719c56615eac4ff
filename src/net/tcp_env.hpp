// TcpEnv — the real-socket backend of runtime::Env.
//
// One TcpEnv per replica process (or per thread in in-process tests): it
// owns a listening socket plus one TCP connection per peer. Connection
// topology is deterministic: node i DIALS every peer with a smaller id and
// ACCEPTS from every peer with a larger id, so each unordered pair shares
// exactly one connection and two replicas never race to create duplicates.
// The dialing side sends a Hello frame identifying itself; both directions
// then carry Data frames (length-prefixed protocol envelopes, net/frame.hpp).
//
// Zero-copy data plane: an outbound envelope is never serialized into a
// contiguous frame. The fixed prefix (frame length, wire kind, envelope
// header) is written into a small slab inside the queue entry and the body
// bytes are referenced via shared_ptr; flush gathers both straight into
// sendmsg. Inbound, FrameReader reads socket bytes directly into a pooled
// buffer and hands out payload views — the only copy on the receive path is
// the kernel's.
//
// Transport-loop affinity (--net-loops K): with Options::net_loops >= 2,
// TcpEnv runs K private EventLoop threads and pins each peer connection to
// loop (peer_id % K). All per-peer state — socket, queues, reader, redial
// timers — is touched only on the owner loop, so there is no lock anywhere
// on the protocol path. send/broadcast (home loop) hand envelopes to owner
// loops through the loops' MPSC mailboxes (a broadcast posts one task per
// loop, not per peer); inbound frames batch back to the home loop, where
// Receiver callbacks fire exactly as in single-loop mode. With net_loops <= 1
// (the default) everything multiplexes inline on the caller's loop — the
// original single-threaded behavior, bit for bit.
//
// Delivery model per peer, mirroring the simulator's FluidLink scheduling:
// High-class frames (dispersal + agreement) go before Low-class frames
// (retrieval), and Low frames go in (order, enqueue-seq) order; cancellation
// by tag scans the Low queues of the owner loop's peers and removes every
// unstarted match — the paper's prioritization (§5) and cancel-on-decode
// (§6.3) on a real socket. An unshaped peer drains these queues straight
// into the socket. A shaped peer (a [[link]] rule) runs two stages, like a
// link that serializes a frame and then propagates it:
//   pay    — frames buy their bytes from the LinkShaper token bucket one
//            frame at a time, in the same High-then-Low order. A High frame
//            preempts a partly paid Low frame: nothing of it has reached the
//            socket yet.
//   delay  — a fully paid frame joins a per-peer FIFO and is released at
//            max(paid_at + delay draw, previous release), so jitter never
//            reorders frames to one peer.
// The writer sends released frames only. The link therefore keeps paying for
// the next frame while earlier ones wait out their delay.
//
// Fault handling: a broken or garbled connection is torn down; the dialing
// side redials with exponential backoff (the accepting side simply waits).
// Frames already handed to the kernel are gone — the protocols above are
// asynchronous state machines that keep making progress from whichever
// messages do arrive, and retrieval re-requests make delivery self-healing.
// Per-peer send queues are byte-bounded: once a slow/absent peer's queue is
// full, further frames to it are counted and dropped instead of exhausting
// memory (backpressure accounting, surfaced via peer_stats()).
#pragma once

#include <array>
#include <atomic>
#include <deque>
#include <map>
#include <memory>
#include <thread>
#include <vector>

#include "net/buffer_pool.hpp"
#include "net/cluster_config.hpp"
#include "net/event_loop.hpp"
#include "net/frame.hpp"
#include "net/shaper.hpp"
#include "runtime/env.hpp"

namespace dl::net {

// Wire-level deviations a real process can exhibit (dlnoded --adversary).
// Both keep the connection and Hello handshake fully honest — the failure is
// in the Data-frame stream, which is the hard case for the protocol layer.
enum class WireAdversary : std::uint8_t {
  None,
  Mute,      // "mute-but-connected": every outbound Data frame silently dies
  SlowDrip,  // all egress forced through a constant-rate crawl shaper
};

class TcpEnv final : public runtime::Env {
 public:
  struct Options {
    std::size_t max_queue_bytes = 64u * 1024 * 1024;  // per peer
    std::size_t max_frame_bytes = kMaxFrameBytes;
    double reconnect_min = 0.05;  // seconds, doubles per failure
    double reconnect_max = 2.0;
    // An accepted connection must complete its Hello within this window
    // (and within a small byte budget) or it is closed — unauthenticated
    // sockets may not hold pending-accept slots or memory indefinitely.
    double handshake_timeout = 5.0;
    // Transport loops. <= 1: all socket I/O inline on the home loop.
    // >= 2: that many private loop threads, peer -> loop (id % net_loops).
    int net_loops = 1;
    // Wire-level misbehavior injection (tests / dlnoded --adversary). An
    // adversary overrides any [[link]] shaping from the cluster config.
    WireAdversary adversary = WireAdversary::None;
    double slow_drip_bytes_per_sec = 4096;  // SlowDrip crawl rate
    // Mixed into per-link loss/jitter RNG streams so two runs (or two nodes)
    // draw independent but reproducible sequences.
    std::uint64_t shaper_seed = 1;
  };

  // Binds the listen socket immediately (so `port` may be 0 and the actual
  // port read back via listen_port() before the cluster starts), but does
  // not touch any loop until start().
  TcpEnv(EventLoop& loop, ClusterConfig cfg, int self, Options opt);
  TcpEnv(EventLoop& loop, ClusterConfig cfg, int self)
      : TcpEnv(loop, std::move(cfg), self, Options()) {}
  ~TcpEnv() override;

  std::uint16_t listen_port() const { return listen_port_; }
  // Updates a peer's port before start() (port-0 discovery in tests).
  void set_peer_port(int id, std::uint16_t port);

  // Injects the Receiver, registers sockets with their owner loops, begins
  // dialing, spawns the transport-loop threads (multi-loop mode), and
  // schedules the Receiver's start() as the first home-loop task. Call once
  // (from any thread, before or while the home loop runs), then loop.run().
  // All Receiver callbacks fire on the home-loop thread.
  void start(runtime::Receiver& r);

  // --- runtime::Env -------------------------------------------------------
  int local_id() const override { return self_; }
  int cluster_size() const override { return cfg_.n; }
  double now() const override { return loop_.now(); }
  runtime::TimerId at(double t, std::function<void()> fn) override;
  runtime::TimerId after(double delay, std::function<void()> fn) override;
  bool cancel_timer(runtime::TimerId id) override;
  void send(int to, const Envelope& env, const runtime::SendOpts& opts) override;
  void broadcast(const Envelope& env, const runtime::SendOpts& opts) override;
  // Zero-copy variants: the envelope body is stolen and referenced by the
  // send queue(s), never copied into a frame.
  void send(int to, Envelope&& env, const runtime::SendOpts& opts) override;
  void broadcast(Envelope&& env, const runtime::SendOpts& opts) override;
  void cancel_send(std::uint64_t tag) override;
  // Thread-safe: posts fn to the home loop.
  void defer(std::function<void()> fn) override { loop_.post(std::move(fn)); }

  // --- backpressure / health accounting -----------------------------------
  struct PeerStats {
    bool connected = false;
    std::size_t queued_bytes = 0;
    std::uint64_t sent_frames = 0;
    std::uint64_t sent_bytes = 0;
    std::uint64_t recv_frames = 0;
    std::uint64_t recv_bytes = 0;
    std::uint64_t dropped_frames = 0;  // rejected by the queue cap
    std::uint64_t dropped_bytes = 0;
    std::uint64_t reconnects = 0;
    std::uint64_t shaped_drops = 0;   // frames killed by loss/mute injection
    std::uint64_t shaped_drop_bytes = 0;
    std::uint64_t shaper_waits = 0;   // pay-stage pauses waiting on the bucket
  };
  // Both are thread-safe snapshots (relaxed counters — may trail the owner
  // loop by a few frames, never torn).
  PeerStats peer_stats(int id) const;
  int connected_peers() const;

  // Aggregate egress-shaper stats across every distinct bucket (peers
  // sharing one [[link]] bucket are counted once). Thread-safe: the bucket
  // set is fixed at construction and LinkShaper::stats() locks internally.
  // All-zero when the node is unshaped.
  LinkShaper::Stats shaper_totals() const;
  int shaper_count() const { return static_cast<int>(shapers_.size()); }

  // Transport loops (empty when net_loops <= 1). The loop set is fixed at
  // construction; EventLoop::stats() cells are thread-safe, so the metrics
  // plane may read them live.
  int transport_loop_count() const { return static_cast<int>(tloops_.size()); }
  const EventLoop& transport_loop(int i) const { return *tloops_[i]; }

  // Test hook: tears down the connection to `id` (if any) as if the network
  // broke it; the dialing side's backoff machinery must then restore it.
  // Multi-loop mode: asynchronous (posted to the owner loop).
  void drop_connection_for_test(int id);

 private:
  // One queued wire frame: the fixed prefix lives inline, the body (if any)
  // is shared with the protocol layer / other peers' queues. Copyable so a
  // broadcast clones the 32-byte prefix while sharing the body.
  struct OutFrame {
    // Fits the largest prefix: Data frame header (22) or a whole Hello (17).
    std::array<std::uint8_t, 24> header{};
    std::uint8_t header_len = 0;
    std::shared_ptr<const Bytes> body;
    std::uint64_t tag = 0;
    // Shaped peers only. `paid`: bytes already bought from the bucket.
    // `ready_at`: release time from the delay line, stamped once the frame
    // is fully paid (0 = immediately, as for the Hello).
    std::size_t paid = 0;
    double ready_at = 0;

    std::size_t size() const {
      return header_len + (body ? body->size() : 0);
    }
  };

  // Cross-thread-readable per-peer accounting. Written only by the owner
  // loop; relaxed loads elsewhere (peer_stats, connected_peers).
  struct PeerCounters {
    std::atomic<bool> connected{false};
    std::atomic<std::size_t> queued_bytes{0};
    std::atomic<std::uint64_t> sent_frames{0};
    std::atomic<std::uint64_t> sent_bytes{0};
    std::atomic<std::uint64_t> recv_frames{0};
    std::atomic<std::uint64_t> recv_bytes{0};
    std::atomic<std::uint64_t> dropped_frames{0};
    std::atomic<std::uint64_t> dropped_bytes{0};
    std::atomic<std::uint64_t> reconnects{0};
    std::atomic<std::uint64_t> shaped_drops{0};
    std::atomic<std::uint64_t> shaped_drop_bytes{0};
    std::atomic<std::uint64_t> shaper_waits{0};
  };

  // All mutable fields owner-loop-affine (loop id % net_loops; the home
  // loop when net_loops <= 1).
  struct Peer {
    int id = -1;
    NodeAddr addr;
    bool dialer = false;  // we initiate (id < self)
    int fd = -1;
    bool connecting = false;  // nonblocking connect in flight
    bool want_write = false;
    FrameReader reader;
    // Queues: High drains before Low; Low ordered by (order, seq). On a
    // shaped peer these are the pay queues and `delayed` is the delay line.
    std::deque<OutFrame> high;
    std::map<std::pair<std::uint64_t, std::uint64_t>, OutFrame> low;
    std::deque<OutFrame> delayed;  // paid, FIFO with non-decreasing ready_at
    double last_release = 0;       // ready_at of the newest delayed frame
    OutFrame inflight;          // partially written head frame
    std::size_t inflight_off = 0;
    bool has_inflight = false;
    double backoff = 0;         // current redial delay
    double established_at = 0;  // when the dialed connection came up
    std::uint64_t redial_timer = 0;
    // WAN emulation (null = unshaped, the fast path). Per-peer when the
    // matching [[link]] rule names a destination; shared across this node's
    // peers (one aggregate egress bucket, like FluidLink) when it does not.
    std::shared_ptr<LinkShaper> shaper;
    std::uint64_t shape_timer = 0;  // pending pay/release wake, owner loop
    double shape_wake_at = 0;       // when shape_timer fires
    PeerCounters stats;
  };

  // An accepted connection whose Hello has not arrived yet. Listener-loop
  // state (loop 0 in multi-loop mode).
  struct PendingAccept {
    int fd = -1;
    std::uint64_t id = 0;     // guards the timeout against fd-number reuse
    std::uint64_t timer = 0;  // handshake deadline
    FrameReader reader;
  };

  // Inbound frames accumulating on a transport loop, bound for the home
  // loop: payload bytes packed into one pooled buffer plus (offset, length)
  // spans. Posted as a single home-loop task per read burst.
  struct RecvBatch {
    int from = -1;
    PooledBuf buf;
    std::size_t used = 0;
    std::vector<std::pair<std::uint32_t, std::uint32_t>> spans;
  };

  Peer& peer(int id) { return peers_[static_cast<std::size_t>(id)]; }
  const Peer& peer(int id) const { return peers_[static_cast<std::size_t>(id)]; }

  bool multi() const { return !tloops_.empty(); }
  std::size_t owner_index(int id) const {
    return static_cast<std::size_t>(id) % tloops_.size();
  }
  EventLoop& owner_loop(int id) {
    return multi() ? *tloops_[owner_index(id)] : loop_;
  }
  EventLoop& listener_loop() { return multi() ? *tloops_[0] : loop_; }

  static OutFrame make_data_frame(Envelope&& env, std::uint64_t tag);
  static void add_iov(const OutFrame& f, std::size_t off, iovec* iov,
                      std::size_t& n);

  void setup_shapers();
  void collect_shapers();  // dedups peer buckets into shapers_
  void schedule_shape_wake(Peer& p, double when);
  double pay_frames(Peer& p, double now);
  bool has_sendable(const Peer& p, double now) const;
  void pop_next(Peer& p);
  void enqueue(Peer& p, OutFrame frame, const runtime::SendOpts& opts);
  void enqueue_and_flush(Peer& p, OutFrame frame, const runtime::SendOpts& opts);
  void deliver_local(std::shared_ptr<const Bytes> env_bytes);
  void update_interest(Peer& p);
  void flush_writes(Peer& p);
  void consume_written(Peer& p, std::size_t n);
  bool drain_frames(Peer& p);  // false once the connection was torn down
  void batch_add(RecvBatch& b, int from, ByteView frame);
  void post_batch(RecvBatch& b);
  void handle_readable(Peer& p);
  void handle_peer_event(int id, std::uint32_t events);
  void disconnect(Peer& p, const char* why);
  void schedule_dial(Peer& p);
  void dial(Peer& p);
  void on_dial_connected(Peer& p);
  void handle_listener(std::uint32_t events);
  void handle_pending_accept(int fd, std::uint32_t events);
  void adopt_accepted(int fd, int peer_id, FrameReader&& reader);
  void close_pending(int fd);
  void cancel_send_on(std::size_t loop_idx, std::uint64_t tag);

  EventLoop& loop_;  // home loop: Receiver callbacks, timers, Env API
  ClusterConfig cfg_;
  int self_;
  Options opt_;
  runtime::Receiver* receiver_ = nullptr;
  int listen_fd_ = -1;
  std::uint16_t listen_port_ = 0;
  bool started_ = false;
  std::atomic<std::uint64_t> next_low_seq_{0};
  std::uint64_t next_pending_id_ = 1;
  // deque: Peer holds atomics (immovable) and must stay address-stable.
  std::deque<Peer> peers_;  // indexed by id; entry self_ unused
  // Distinct shaper buckets, deduped at setup_shapers() time; immutable
  // afterwards (read by shaper_totals() from any thread).
  std::vector<std::shared_ptr<LinkShaper>> shapers_;
  std::map<int, PendingAccept> pending_;  // fd -> state
  // Transport tier (empty when net_loops <= 1). Loops are constructed in
  // the ctor (owner_loop must resolve before start), threads in start().
  std::vector<std::unique_ptr<EventLoop>> tloops_;
  std::vector<std::thread> tthreads_;
};

}  // namespace dl::net

// Gateway — the node-side server of the client ingress plane.
//
// Listens on the node's `client_port` (net::ClusterConfig) and turns
// external SubmitTx frames into mempool admissions and node submissions:
//
//   client ──SubmitTx──▶ Mempool.admit ──pump──▶ DlNode::submit ──▶ blocks
//          ◀──TxAck────            (watermarked)
//          ◀──TxCommitted── on_block_delivered (hash-matched per tx)
//
// Threading: the Gateway shares the replica's home loop with the DlNode it
// feeds — every method below must run on that loop's thread. Admission
// calls DlNode::submit in place, and the node's delivery callback calls
// on_block_delivered() in place.
//
// Hardening mirrors the replica transport: accepted sockets must complete a
// ClientHello within a deadline and a small pre-auth byte budget; frames are
// length-checked before buffering; a malformed or oversized frame poisons
// the connection (dropped, never UB). Per-client write queues are byte-
// bounded — a client that stops reading its acks is disconnected rather
// than allowed to pin node memory. Writes are batched: frames queue per
// connection and hit send() once per drained read batch / commit batch, not
// once per frame.
//
// Clients identify themselves with a session nonce (net::ClientHello). A
// reconnecting client presents the same nonce and adopts its predecessor's
// identity, so TxCommitted notifications for transactions admitted on the
// old connection reach the new one; commits for clients that never return
// are counted and dropped. One mempool sees every connection, so a payload
// resubmitted after a reconnect is deduplicated and commits once at the
// ledger level.
//
// The pump: admitted payloads do NOT go straight into the node's unbounded
// input queue. They sit in the mempool (whose caps implement backpressure)
// and are drained toward the node only while the node's input queue is
// below a watermark — on admission, after every delivered block, and on a
// slow refill timer.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "client/mempool.hpp"
#include "dl/block.hpp"
#include "dl/node.hpp"
#include "net/cluster_config.hpp"
#include "net/event_loop.hpp"
#include "net/frame.hpp"
#include "obs/relaxed.hpp"

namespace dl::client {

class Gateway {
 public:
  struct Options {
    MempoolOptions mempool;
    // Client frames are one transaction at most; far below the replica
    // frame ceiling.
    std::size_t max_frame_bytes = 2u * 1024 * 1024;
    // Per-client outbound queue cap; exceeding it disconnects the client.
    std::size_t max_client_queue_bytes = 8u * 1024 * 1024;
    double handshake_timeout = 5.0;
    std::size_t max_clients = 1024;
    // Stop pumping mempool → node while the node's input queue holds at
    // least this many bytes (0 = derive 2×max_block_bytes from the node).
    std::size_t node_queue_watermark = 0;
    double pump_interval = 0.005;  // refill timer, seconds
  };

  // Relaxed-atomic cells: written on the gateway's loop, readable live from
  // the metrics plane (see obs/relaxed.hpp for snapshot semantics).
  struct Stats {
    obs::RelaxedU64 accepted;          // sockets past ClientHello
    obs::RelaxedU64 active;            // currently connected clients
    obs::RelaxedU64 submits;           // SubmitTx frames received
    obs::RelaxedU64 commits_notified;  // TxCommitted frames queued
    obs::RelaxedU64 commits_clientless;  // owner gone, notify dropped
    obs::RelaxedU64 disconnects_slow;    // write-queue cap exceeded
    obs::RelaxedU64 disconnects_bad;     // malformed/oversized frames
  };

  // Binds the listen socket immediately (port may be 0: read the actual
  // port back via listen_port()); registers with the loop in start().
  // `loop` is the node's home loop.
  Gateway(net::EventLoop& loop, core::DlNode& node, const std::string& host,
          std::uint16_t port, Options opt);
  Gateway(net::EventLoop& loop, core::DlNode& node, const std::string& host,
          std::uint16_t port)
      : Gateway(loop, node, host, port, Options()) {}
  ~Gateway();
  Gateway(const Gateway&) = delete;
  Gateway& operator=(const Gateway&) = delete;

  std::uint16_t listen_port() const { return listen_port_; }
  void start();

  // Delivery hook: call it from the node's delivery callback. Hashes each
  // transaction once (skipped entirely while no client awaits a commit),
  // notifies the owning clients with the stage breakdown, then refills the
  // node. `at_epoch` is the monotone delivery epoch clients see.
  void on_block_delivered(std::uint64_t at_epoch, const core::BlockKey& key,
                          const core::Block& block, double now);

  // Graceful shutdown: stop accepting, send each client a Goodbye, flush
  // what the sockets will take synchronously, close everything.
  void shutdown();

  Mempool& mempool() { return mempool_; }
  const Stats& stats() const { return stats_; }

 private:
  struct Conn {
    int fd = -1;
    std::uint64_t nonce = 0;
    net::FrameReader reader;
    // Outbound frames are encoded in place into pooled chunks and drained
    // with gather-writes — steady-state ack traffic allocates nothing.
    net::ByteRope out;
    bool want_write = false;
  };
  struct PendingAccept {
    int fd = -1;
    std::uint64_t id = 0;
    std::uint64_t timer = 0;
    net::FrameReader reader;
  };

  void pump();
  void drain_into_node();
  void handle_listener(std::uint32_t events);
  void handle_pending(int fd, std::uint32_t events);
  void close_pending(int fd);
  void adopt(int fd, std::uint64_t nonce, net::FrameReader&& reader);
  void handle_client_event(std::uint64_t nonce, std::uint32_t events);
  void handle_readable(Conn& c);
  bool drain_frames(Conn& c);  // false once the connection was closed
  void handle_submit(Conn& c, const net::WireFrame& wf);
  // Pre-write queue-cap check: false means the cap was hit and the client
  // has been disconnected. On true the caller encodes straight into c.out
  // (no syscall; callers batch via flush_writes).
  bool ensure_queue_space(Conn& c, std::size_t frame_bytes);
  void flush_writes(Conn& c);
  void update_interest(Conn& c);
  void close_client(Conn& c);

  net::EventLoop& loop_;
  core::DlNode& node_;
  Options opt_;
  Mempool mempool_;
  int listen_fd_ = -1;
  std::uint16_t listen_port_ = 0;
  bool started_ = false;
  bool shut_down_ = false;
  std::size_t watermark_ = 0;
  std::uint64_t pump_timer_ = 0;
  std::uint64_t next_pending_id_ = 1;
  std::map<int, PendingAccept> pending_;      // fd → pre-auth state
  std::map<std::uint64_t, Conn> clients_;     // nonce → connection
  Stats stats_;
};

}  // namespace dl::client

#include "client/gateway.hpp"

#include <netinet/in.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "net/socket_util.hpp"

namespace dl::client {

using net::resolve_ipv4;
using net::set_nodelay;
using net::set_nonblocking;

namespace {

constexpr std::size_t kMaxPendingAccepts = 64;
// A ClientHello is 21 bytes; more than this without one is not a client.
constexpr std::size_t kMaxPreAuthBytes = 4096;

// Clamped microseconds between two checkpoints; 0 when either is unset.
std::uint32_t stage_us(double from, double to) {
  if (from <= 0 || to <= from) return 0;
  const double us = (to - from) * 1e6;
  return us >= 4294967295.0 ? 4294967295u : static_cast<std::uint32_t>(us);
}

net::StageLatencies stage_breakdown(const CommitRecord& rec,
                                    const core::OwnBlockStages& stages,
                                    double delivered_at, double now) {
  net::StageLatencies s;
  s.ingress_us = stage_us(rec.submit_time, stages.proposed);
  s.disperse_us = stage_us(stages.proposed, stages.vid_done);
  s.ba_us = stage_us(stages.vid_done, stages.ba_done);
  s.retrieve_us = stage_us(stages.ba_done, stages.delivered);
  s.notify_us = stage_us(delivered_at, now);
  return s;
}

}  // namespace

Gateway::Gateway(net::EventLoop& loop, core::DlNode& node,
                 const std::string& host, std::uint16_t port, Options opt)
    : loop_(loop), node_(node), opt_(opt), mempool_(opt.mempool) {
  watermark_ = opt_.node_queue_watermark != 0
                   ? opt_.node_queue_watermark
                   : 2 * node_.config().max_block_bytes;
  listen_fd_ = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) throw std::runtime_error("Gateway: socket() failed");
  int one = 1;
  setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  if (!resolve_ipv4(host, port, addr)) {
    close(listen_fd_);
    throw std::runtime_error("Gateway: cannot resolve " + host);
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0 ||
      listen(listen_fd_, 64) != 0 || !set_nonblocking(listen_fd_)) {
    close(listen_fd_);
    throw std::runtime_error("Gateway: cannot listen on " + host + ":" +
                             std::to_string(port));
  }
  sockaddr_in bound{};
  socklen_t blen = sizeof bound;
  getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &blen);
  listen_port_ = ntohs(bound.sin_port);
}

Gateway::~Gateway() {
  if (!shut_down_) shutdown();
}

void Gateway::start() {
  if (started_ || shut_down_) return;
  started_ = true;
  loop_.add_fd(listen_fd_, EPOLLIN,
               [this](std::uint32_t ev) { handle_listener(ev); });
  pump_timer_ = loop_.after(opt_.pump_interval, [this] { pump(); });
}

// --- mempool → node ----------------------------------------------------------

void Gateway::drain_into_node() {
  while (node_.input_queue_bytes() < watermark_) {
    auto payload = mempool_.pop();
    if (!payload.has_value()) break;
    node_.submit(std::move(*payload));
  }
}

void Gateway::pump() {
  pump_timer_ = 0;
  drain_into_node();
  if (!shut_down_) {
    pump_timer_ = loop_.after(opt_.pump_interval, [this] { pump(); });
  }
}

void Gateway::on_block_delivered(std::uint64_t at_epoch,
                                 const core::BlockKey& key,
                                 const core::Block& block, double now) {
  // Nothing of ours is awaiting a commit: skip the per-transaction hashing
  // entirely (a quiet gateway must not tax the delivery hot path).
  if (mempool_.tracked_txs() == 0) {
    drain_into_node();
    return;
  }
  const auto proposer = static_cast<std::uint32_t>(key.proposer);
  core::OwnBlockStages stages;  // zeros unless this is our own proposal
  if (key.proposer == node_.config().self) {
    if (const auto* st = node_.own_block_stages(key.epoch)) stages = *st;
  }
  const double notify_at = loop_.now();
  std::vector<std::uint64_t> touched;  // notified clients, flushed once below
  for (const core::Transaction& tx : block.txs) {
    auto rec = mempool_.match_commit(sha256(tx.payload), at_epoch, proposer,
                                     notify_at);
    if (!rec.has_value()) continue;
    auto it = clients_.find(rec->client_nonce);
    if (it == clients_.end() || it->second.fd < 0) {
      ++stats_.commits_clientless;
      continue;
    }
    ++stats_.commits_notified;
    if (ensure_queue_space(it->second, net::kTxCommittedFrameBytes)) {
      net::encode_tx_committed_into(
          it->second.out, rec->client_seq, rec->epoch, rec->proposer,
          rec->latency_us, stage_breakdown(*rec, stages, now, notify_at));
      touched.push_back(rec->client_nonce);
    }
  }
  // One send() burst per client per delivered block, not per transaction.
  for (const std::uint64_t nonce : touched) {
    auto it = clients_.find(nonce);
    if (it != clients_.end() && it->second.fd >= 0) flush_writes(it->second);
  }
  // Block packing freed input-queue space; refill eagerly.
  drain_into_node();
}

// --- accept / pre-auth -------------------------------------------------------

void Gateway::handle_listener(std::uint32_t /*events*/) {
  while (true) {
    const int fd = accept4(listen_fd_, nullptr, nullptr,
                           SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (shut_down_ || pending_.size() >= kMaxPendingAccepts ||
        clients_.size() >= opt_.max_clients) {
      close(fd);
      continue;
    }
    set_nodelay(fd);
    const std::uint64_t id = next_pending_id_++;
    const std::uint64_t timer =
        loop_.after(opt_.handshake_timeout, [this, fd, id] {
          auto it = pending_.find(fd);
          if (it != pending_.end() && it->second.id == id) {
            it->second.timer = 0;
            close_pending(fd);
          }
        });
    pending_.emplace(
        fd, PendingAccept{fd, id, timer, net::FrameReader(opt_.max_frame_bytes)});
    loop_.add_fd(fd, EPOLLIN,
                 [this, fd](std::uint32_t ev) { handle_pending(fd, ev); });
  }
}

void Gateway::close_pending(int fd) {
  auto it = pending_.find(fd);
  if (it != pending_.end() && it->second.timer != 0) {
    loop_.cancel_timer(it->second.timer);
  }
  loop_.del_fd(fd);
  close(fd);
  pending_.erase(fd);
}

void Gateway::handle_pending(int fd, std::uint32_t events) {
  auto it = pending_.find(fd);
  if (it == pending_.end()) return;
  if ((events & (EPOLLERR | EPOLLHUP)) != 0) {
    close_pending(fd);
    return;
  }
  std::uint8_t buf[4096];
  while (true) {
    const ssize_t n = ::read(fd, buf, sizeof buf);
    if (n > 0) {
      if (!it->second.reader.feed(ByteView(buf, static_cast<std::size_t>(n)))) {
        close_pending(fd);
        return;
      }
      Bytes fr;
      if (it->second.reader.next(fr)) {
        net::WireFrame wf;
        if (!net::decode_wire(fr, wf) ||
            wf.kind != net::WireKind::ClientHello) {
          close_pending(fd);
          return;
        }
        if (it->second.timer != 0) loop_.cancel_timer(it->second.timer);
        net::FrameReader reader = std::move(it->second.reader);
        pending_.erase(it);
        adopt(fd, wf.client_nonce, std::move(reader));
        return;
      }
      if (it->second.reader.buffered_bytes() > kMaxPreAuthBytes) {
        close_pending(fd);
        return;
      }
      continue;
    }
    if (n == 0 || (errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR)) {
      close_pending(fd);
      return;
    }
    if (errno == EINTR) continue;
    break;  // EAGAIN: wait for more bytes
  }
}

void Gateway::adopt(int fd, std::uint64_t nonce, net::FrameReader&& reader) {
  // Same nonce = same client session: a reconnect replaces the stale socket
  // and inherits all in-flight commit subscriptions.
  auto it = clients_.find(nonce);
  if (it != clients_.end()) {
    close_client(it->second);
    clients_.erase(nonce);
  }
  ++stats_.accepted;
  Conn c;
  c.fd = fd;
  c.nonce = nonce;
  c.reader = std::move(reader);
  loop_.del_fd(fd);  // swap the pre-auth handler for the client handler
  loop_.add_fd(fd, EPOLLIN, [this, nonce](std::uint32_t ev) {
    handle_client_event(nonce, ev);
  });
  Conn& ref = clients_[nonce];
  ref = std::move(c);
  stats_.active = clients_.size();
  // Frames glued to the ClientHello are already buffered.
  drain_frames(ref);
}

// --- established client connections -----------------------------------------

void Gateway::handle_client_event(std::uint64_t nonce, std::uint32_t events) {
  auto it = clients_.find(nonce);
  if (it == clients_.end() || it->second.fd < 0) return;
  Conn& c = it->second;
  if ((events & (EPOLLERR | EPOLLHUP)) != 0) {
    close_client(c);
    return;
  }
  if ((events & EPOLLIN) != 0) {
    handle_readable(c);
    if (c.fd < 0) return;
  }
  if ((events & EPOLLOUT) != 0) flush_writes(c);
}

void Gateway::handle_readable(Conn& c) {
  std::uint8_t buf[65536];
  while (c.fd >= 0) {
    const ssize_t n = ::read(c.fd, buf, sizeof buf);
    if (n > 0) {
      if (!c.reader.feed(ByteView(buf, static_cast<std::size_t>(n)))) {
        ++stats_.disconnects_bad;
        close_client(c);
        return;
      }
      if (!drain_frames(c)) return;
      continue;
    }
    if (n == 0) {
      close_client(c);
      return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    close_client(c);
    return;
  }
}

bool Gateway::drain_frames(Conn& c) {
  Bytes fr;
  while (c.fd >= 0 && c.reader.next(fr)) {
    net::WireFrame wf;
    if (!net::decode_wire(fr, wf) || wf.kind != net::WireKind::SubmitTx) {
      // Only SubmitTx is legal after the handshake; anything else (or a
      // frame that fails to decode) poisons the connection.
      ++stats_.disconnects_bad;
      close_client(c);
      return false;
    }
    handle_submit(c, wf);
  }
  if (c.fd >= 0 && c.reader.failed()) {
    ++stats_.disconnects_bad;
    close_client(c);
    return false;
  }
  // Acks queued above go out in one send() burst per read batch.
  if (c.fd >= 0) flush_writes(c);
  return c.fd >= 0;
}

void Gateway::handle_submit(Conn& c, const net::WireFrame& wf) {
  ++stats_.submits;
  Bytes payload(wf.data.begin(), wf.data.end());
  Hash h;
  const AdmitResult r = mempool_.admit(std::move(payload), loop_.now(),
                                       c.nonce, wf.client_seq, &h);
  if (!ensure_queue_space(c, net::kTxAckFrameBytes)) {
    return;  // queue cap disconnected the client
  }
  // The ack is encoded straight into the pooled outbound rope — the old
  // per-ack Bytes allocation was the gateway hot path's only steady-state
  // malloc.
  net::encode_tx_ack_into(c.out, wf.client_seq, static_cast<net::TxStatus>(r));
  switch (r) {
    case AdmitResult::Admitted:
      // Feed the node up to the watermark right away (keeps latency low at
      // light load; the caps + watermark govern heavy load).
      drain_into_node();
      break;
    case AdmitResult::Committed: {
      // Already committed earlier (e.g. resubmitted after a reconnect that
      // lost the notification): replay the commit. Stage stamps were not
      // retained in the committed ring; the replay carries zeros.
      auto rec = mempool_.committed_record(h);
      if (rec.has_value()) {
        ++stats_.commits_notified;
        if (ensure_queue_space(c, net::kTxCommittedFrameBytes)) {
          net::encode_tx_committed_into(c.out, wf.client_seq, rec->epoch,
                                        rec->proposer, rec->latency_us);
        }
      }
      break;
    }
    default:
      break;  // Duplicate / Full / TooLarge: the ack already said so
  }
}

// --- write path --------------------------------------------------------------

bool Gateway::ensure_queue_space(Conn& c, std::size_t frame_bytes) {
  if (c.fd < 0) return false;
  if (c.out.size() + frame_bytes > opt_.max_client_queue_bytes) {
    // The client is not reading its notifications; it may not pin node
    // memory. Closing also discards the queue.
    ++stats_.disconnects_slow;
    close_client(c);
    return false;
  }
  // No syscall on the encode that follows: the caller flushes once per
  // batch (read burst, commit batch, shutdown), collapsing many small
  // frames into few send() calls.
  return true;
}

void Gateway::flush_writes(Conn& c) {
  while (c.fd >= 0 && !c.out.empty()) {
    // Gather-write: acks and commit notifications are tiny (tens of bytes),
    // so one syscall per queued frame would dominate the ingress CPU cost.
    // The rope fills one iovec per pooled chunk (~16K of frames each).
    iovec iov[64];
    const std::size_t cnt = c.out.fill_iovecs(iov, 64);
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = cnt;
    const ssize_t n = ::sendmsg(c.fd, &msg, MSG_NOSIGNAL);
    if (n > 0) {
      c.out.consume(static_cast<std::size_t>(n));
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n < 0 && errno == EINTR) continue;
    close_client(c);
    return;
  }
  update_interest(c);
}

void Gateway::update_interest(Conn& c) {
  if (c.fd < 0) return;
  const bool want = !c.out.empty();
  if (want == c.want_write) return;
  c.want_write = want;
  loop_.mod_fd(c.fd, EPOLLIN | (want ? static_cast<std::uint32_t>(EPOLLOUT) : 0u));
}

void Gateway::close_client(Conn& c) {
  if (c.fd < 0) return;
  loop_.del_fd(c.fd);
  close(c.fd);
  c.fd = -1;
  c.out.clear();  // pooled chunks recycle here
  // The map entry is reaped on the next loop turn, never mid-callstack —
  // callers may still hold a reference to `c`. A reconnect that re-adopted
  // the nonce in between is left alone (its fd is live again).
  loop_.post([this, nonce = c.nonce] {
    auto it = clients_.find(nonce);
    if (it != clients_.end() && it->second.fd < 0) {
      clients_.erase(it);
      stats_.active = clients_.size();
    }
  });
}

// --- shutdown ----------------------------------------------------------------

void Gateway::shutdown() {
  if (shut_down_) return;
  shut_down_ = true;
  if (pump_timer_ != 0) {
    loop_.cancel_timer(pump_timer_);
    pump_timer_ = 0;
  }
  for (auto& [fd, pa] : pending_) {
    if (pa.timer != 0) loop_.cancel_timer(pa.timer);
    loop_.del_fd(fd);
    close(fd);
  }
  pending_.clear();
  // Final ack: queue a Goodbye behind any pending TxAck/TxCommitted frames
  // and flush what each socket will take without blocking.
  for (auto& [nonce, c] : clients_) {
    if (c.fd < 0) continue;
    net::encode_goodbye_into(c.out);
    flush_writes(c);
    close_client(c);
  }
  clients_.clear();
  stats_.active = 0;
  if (listen_fd_ >= 0) {
    if (started_) loop_.del_fd(listen_fd_);
    close(listen_fd_);
    listen_fd_ = -1;
  }
}

}  // namespace dl::client

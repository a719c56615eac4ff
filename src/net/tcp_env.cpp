#include "net/tcp_env.hpp"

#include <netinet/in.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <limits>
#include <stdexcept>

#include "common/rng.hpp"
#include "net/socket_util.hpp"

namespace dl::net {

namespace {

constexpr std::size_t kMaxPendingAccepts = 64;
// A Hello is ~21 bytes; an accepted connection that buffers more than this
// without completing one is not a replica.
constexpr std::size_t kMaxPreAuthBytes = 4096;
// Scatter-gather width per sendmsg: each frame contributes at most two
// iovecs (prefix slab + body reference).
constexpr std::size_t kMaxIov = 64;
// Receive batches cross from a transport loop to the home loop in pooled
// buffers of at least this capacity (bigger frames get a bigger buffer).
constexpr std::size_t kRecvBatchBytes = 64u << 10;

constexpr auto relaxed = std::memory_order_relaxed;
constexpr double kNever = std::numeric_limits<double>::infinity();

}  // namespace

TcpEnv::TcpEnv(EventLoop& loop, ClusterConfig cfg, int self, Options opt)
    : loop_(loop), cfg_(std::move(cfg)), self_(self), opt_(opt) {
  if (self_ < 0 || self_ >= cfg_.n) {
    throw std::invalid_argument("TcpEnv: self out of range");
  }
  if (opt_.net_loops > cfg_.n) opt_.net_loops = cfg_.n;
  if (opt_.net_loops >= 2) {
    for (int k = 0; k < opt_.net_loops; ++k) {
      tloops_.push_back(std::make_unique<EventLoop>());
    }
  }
  for (int i = 0; i < cfg_.n; ++i) {
    Peer& p = peers_.emplace_back();
    p.id = i;
    p.addr = cfg_.nodes[static_cast<std::size_t>(i)];
    p.dialer = i < self_;
    p.reader = FrameReader(opt_.max_frame_bytes);
  }
  setup_shapers();

  // Bind the listen socket now so a port of 0 resolves before start().
  const NodeAddr& me = cfg_.nodes[static_cast<std::size_t>(self_)];
  listen_fd_ = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) throw std::runtime_error("TcpEnv: socket() failed");
  int one = 1;
  setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  if (!resolve_ipv4(me.host, me.port, addr)) {
    close(listen_fd_);
    throw std::runtime_error("TcpEnv: cannot resolve own address " + me.host);
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0 ||
      listen(listen_fd_, 64) != 0 || !set_nonblocking(listen_fd_)) {
    close(listen_fd_);
    throw std::runtime_error("TcpEnv: cannot listen on " + me.host + ":" +
                             std::to_string(me.port));
  }
  sockaddr_in bound{};
  socklen_t blen = sizeof bound;
  getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &blen);
  listen_port_ = ntohs(bound.sin_port);
}

TcpEnv::~TcpEnv() {
  if (multi()) {
    // Quiesce the transport tier first: once the loop threads are joined,
    // no other thread can touch peer or pending state and the fds can be
    // closed from here without epoll bookkeeping.
    for (auto& l : tloops_) l->stop();
    for (auto& t : tthreads_) t.join();
    for (Peer& p : peers_) {
      if (p.fd >= 0) {
        close(p.fd);
        p.fd = -1;
      }
    }
    for (auto& [fd, pa] : pending_) close(fd);
    if (listen_fd_ >= 0) close(listen_fd_);
    return;
  }
  for (Peer& p : peers_) {
    if (p.fd >= 0) {
      if (started_) loop_.del_fd(p.fd);
      close(p.fd);
      p.fd = -1;
    }
    if (p.redial_timer != 0) loop_.cancel_timer(p.redial_timer);
    if (p.shape_timer != 0) loop_.cancel_timer(p.shape_timer);
  }
  for (auto& [fd, pa] : pending_) {
    if (pa.timer != 0) loop_.cancel_timer(pa.timer);
    loop_.del_fd(fd);
    close(fd);
  }
  if (listen_fd_ >= 0) {
    if (started_) loop_.del_fd(listen_fd_);
    close(listen_fd_);
  }
}

void TcpEnv::set_peer_port(int id, std::uint16_t port) {
  peer(id).addr.port = port;
}

LinkShaper::Stats TcpEnv::shaper_totals() const {
  LinkShaper::Stats total;
  for (const auto& sh : shapers_) {
    const LinkShaper::Stats s = sh->stats();
    total.shaped_bytes += s.shaped_bytes;
    total.lost_frames += s.lost_frames;
    total.lost_bytes += s.lost_bytes;
    total.throttle_waits += s.throttle_waits;
  }
  return total;
}

void TcpEnv::collect_shapers() {
  for (const Peer& p : peers_) {
    if (p.id == self_ || !p.shaper) continue;
    bool seen = false;
    for (const auto& sh : shapers_) {
      if (sh == p.shaper) {
        seen = true;
        break;
      }
    }
    if (!seen) shapers_.push_back(p.shaper);
  }
}

void TcpEnv::setup_shapers() {
  // The schedule origin is "process time now": a trace's first rate window
  // starts when the replica starts, on every node, matching the simulator
  // where traces start at sim time 0.
  const double t0 = loop_.now();
  if (opt_.adversary == WireAdversary::SlowDrip) {
    // Every peer gets its own crawl bucket: the drip rate is per connection,
    // so the adversary trickles to all peers simultaneously.
    for (Peer& p : peers_) {
      if (p.id == self_) continue;
      LinkShaper::Config c;
      c.schedule.rates = {opt_.slow_drip_bytes_per_sec};
      c.burst_bytes = LinkShaper::kDefaultQuantum;  // tight pacing, no burst
      c.seed = opt_.shaper_seed;
      p.shaper = std::make_shared<LinkShaper>(c, t0);
    }
    collect_shapers();
    return;
  }
  // [[link]] rules without a `to` model the node's aggregate egress pipe:
  // every peer matched by such a rule shares ONE bucket, like FluidLink.
  std::map<const LinkShapeRule*, std::shared_ptr<LinkShaper>> shared;
  for (Peer& p : peers_) {
    if (p.id == self_) continue;
    const LinkShapeRule* r = cfg_.match_link(self_, p.id);
    if (r == nullptr) continue;
    if (!r->trace_path.empty() && r->schedule.unlimited()) {
      throw std::invalid_argument(
          "TcpEnv: [[link]] trace \"" + r->trace_path +
          "\" was never resolved (use ClusterConfig::load/resolve_traces)");
    }
    LinkShaper::Config c;
    c.schedule = r->schedule;
    c.delay = r->delay_ms / 1000.0;
    c.jitter = r->jitter_ms / 1000.0;
    c.loss = static_cast<double>(r->loss_ppm) / 1e6;
    c.burst_bytes = r->burst_bytes;
    // Distinct but reproducible RNG streams per directed pair (per node for
    // a shared bucket — splitmix64 of the composed identifiers).
    std::uint64_t s = r->seed ^ (opt_.shaper_seed << 32) ^
                      (static_cast<std::uint64_t>(self_) << 16) ^
                      static_cast<std::uint64_t>(r->to >= 0 ? p.id + 1 : 0);
    c.seed = splitmix64(s);
    if (r->to >= 0) {
      p.shaper = std::make_shared<LinkShaper>(c, t0);
    } else {
      auto& slot = shared[r];
      if (!slot) slot = std::make_shared<LinkShaper>(c, t0);
      p.shaper = slot;
    }
  }
  collect_shapers();
}

void TcpEnv::start(runtime::Receiver& r) {
  if (started_) return;
  started_ = true;
  receiver_ = &r;  // published by the posts below before any callback fires
  if (!multi()) {
    loop_.post([this] {
      loop_.add_fd(listen_fd_, EPOLLIN,
                   [this](std::uint32_t ev) { handle_listener(ev); });
      for (Peer& p : peers_) {
        if (p.dialer) dial(p);
      }
      if (receiver_ != nullptr) receiver_->start();
    });
    return;
  }
  for (std::size_t k = 0; k < tloops_.size(); ++k) {
    tloops_[k]->post([this, k] {
      if (k == 0) {
        listener_loop().add_fd(listen_fd_, EPOLLIN, [this](std::uint32_t ev) {
          handle_listener(ev);
        });
      }
      for (Peer& p : peers_) {
        if (p.dialer && owner_index(p.id) == k) dial(p);
      }
    });
    tthreads_.emplace_back([l = tloops_[k].get()] { l->run(); });
  }
  loop_.post([this] {
    if (receiver_ != nullptr) receiver_->start();
  });
}

// --- Env ---------------------------------------------------------------------

runtime::TimerId TcpEnv::at(double t, std::function<void()> fn) {
  return loop_.at(t, std::move(fn));
}

runtime::TimerId TcpEnv::after(double delay, std::function<void()> fn) {
  return loop_.after(delay, std::move(fn));
}

bool TcpEnv::cancel_timer(runtime::TimerId id) { return loop_.cancel_timer(id); }

TcpEnv::OutFrame TcpEnv::make_data_frame(Envelope&& env, std::uint64_t tag) {
  OutFrame f;
  f.header_len =
      static_cast<std::uint8_t>(encode_data_frame_header(env, f.header.data()));
  if (!env.body.empty()) {
    f.body = std::make_shared<const Bytes>(std::move(env.body));
  }
  f.tag = tag;
  return f;
}

void TcpEnv::send(int to, const Envelope& env, const runtime::SendOpts& opts) {
  send(to, Envelope(env), opts);
}

void TcpEnv::send(int to, Envelope&& env, const runtime::SendOpts& opts) {
  if (to == self_) {
    // Loopback needs a contiguous envelope; no wire framing involved.
    deliver_local(std::make_shared<const Bytes>(env.encode()));
    return;
  }
  OutFrame f = make_data_frame(std::move(env), opts.tag);
  if (!multi()) {
    enqueue_and_flush(peer(to), std::move(f), opts);
    return;
  }
  owner_loop(to).post([this, to, f = std::move(f), opts]() mutable {
    enqueue_and_flush(peer(to), std::move(f), opts);
  });
}

void TcpEnv::broadcast(const Envelope& env, const runtime::SendOpts& opts) {
  broadcast(Envelope(env), opts);
}

void TcpEnv::broadcast(Envelope&& env, const runtime::SendOpts& opts) {
  // Encode once: loopback delivery needs the contiguous envelope anyway, and
  // every peer's queue entry then shares that same buffer behind a 5-byte
  // per-peer frame prefix — no per-peer body copies.
  auto env_bytes = std::make_shared<const Bytes>(env.encode());
  deliver_local(env_bytes);
  OutFrame proto;
  proto.header_len = kDataPayloadOffset;  // frame length + wire kind
  const auto payload_len = static_cast<std::uint32_t>(env_bytes->size() + 1);
  proto.header[0] = static_cast<std::uint8_t>(payload_len);
  proto.header[1] = static_cast<std::uint8_t>(payload_len >> 8);
  proto.header[2] = static_cast<std::uint8_t>(payload_len >> 16);
  proto.header[3] = static_cast<std::uint8_t>(payload_len >> 24);
  proto.header[4] = static_cast<std::uint8_t>(WireKind::Data);
  proto.body = std::move(env_bytes);
  proto.tag = opts.tag;
  if (!multi()) {
    for (Peer& p : peers_) {
      if (p.id == self_) continue;
      enqueue_and_flush(p, OutFrame(proto), opts);
    }
    return;
  }
  // One mailbox push per transport loop; each loop fans out to the peers it
  // owns, so a broadcast costs K posts, not N.
  for (std::size_t k = 0; k < tloops_.size(); ++k) {
    tloops_[k]->post([this, k, proto, opts] {
      for (Peer& p : peers_) {
        if (p.id == self_ || owner_index(p.id) != k) continue;
        enqueue_and_flush(p, OutFrame(proto), opts);
      }
    });
  }
}

void TcpEnv::cancel_send_on(std::size_t loop_idx, std::uint64_t tag) {
  for (Peer& p : peers_) {
    if (multi() && owner_index(p.id) != loop_idx) continue;
    for (auto it = p.low.begin(); it != p.low.end();) {
      // A partly paid frame is already on the emulated wire and keeps going,
      // like the message in service in FluidLink::cancel.
      if (it->second.tag == tag && it->second.paid == 0) {
        p.stats.queued_bytes.fetch_sub(it->second.size(), relaxed);
        it = p.low.erase(it);
      } else {
        ++it;
      }
    }
    if (p.fd >= 0 && !p.connecting) update_interest(p);
  }
}

void TcpEnv::cancel_send(std::uint64_t tag) {
  if (tag == 0) return;
  if (!multi()) {
    cancel_send_on(0, tag);
    return;
  }
  for (std::size_t k = 0; k < tloops_.size(); ++k) {
    tloops_[k]->post([this, k, tag] { cancel_send_on(k, tag); });
  }
}

void TcpEnv::deliver_local(std::shared_ptr<const Bytes> env_bytes) {
  // Asynchronous like every other delivery: the receiver is never re-entered
  // from inside its own send path.
  loop_.post([this, env_bytes = std::move(env_bytes)] {
    if (receiver_ != nullptr) {
      receiver_->on_receive(self_, ByteView(*env_bytes));
    }
  });
}

// --- write path --------------------------------------------------------------

void TcpEnv::enqueue(Peer& p, OutFrame frame, const runtime::SendOpts& opts) {
  const std::size_t size = frame.size();
  if (opt_.adversary == WireAdversary::Mute) {
    // Mute-but-connected: the connection and Hello stay perfectly healthy
    // (the Hello never passes through enqueue), every Data frame dies here.
    p.stats.shaped_drops.fetch_add(1, relaxed);
    p.stats.shaped_drop_bytes.fetch_add(size, relaxed);
    return;
  }
  if (p.shaper && p.shaper->lose_frame(size)) {
    p.stats.shaped_drops.fetch_add(1, relaxed);
    p.stats.shaped_drop_bytes.fetch_add(size, relaxed);
    return;
  }
  if (size > opt_.max_frame_bytes + kFrameHeaderBytes) {
    // Never emit a frame every receiver is obliged to reject — that would
    // tear the connection down on each retry and livelock the pair.
    p.stats.dropped_frames.fetch_add(1, relaxed);
    p.stats.dropped_bytes.fetch_add(size, relaxed);
    return;
  }
  if (p.stats.queued_bytes.load(relaxed) + size > opt_.max_queue_bytes) {
    // Backpressure: the peer is slow or gone and its queue is full. Drop and
    // account — the protocol layers tolerate message loss.
    p.stats.dropped_frames.fetch_add(1, relaxed);
    p.stats.dropped_bytes.fetch_add(size, relaxed);
    return;
  }
  p.stats.queued_bytes.fetch_add(size, relaxed);
  if (opts.cls == runtime::TrafficClass::High) {
    p.high.push_back(std::move(frame));
  } else {
    p.low.emplace(std::make_pair(opts.order, next_low_seq_.fetch_add(1, relaxed)),
                  std::move(frame));
  }
}

void TcpEnv::enqueue_and_flush(Peer& p, OutFrame frame,
                               const runtime::SendOpts& opts) {
  enqueue(p, std::move(frame), opts);
  if (p.fd >= 0 && !p.connecting) flush_writes(p);
}

bool TcpEnv::has_sendable(const Peer& p, double now) const {
  if (p.shaper) return !p.delayed.empty() && p.delayed.front().ready_at <= now;
  return !p.high.empty() || !p.low.empty();
}

void TcpEnv::pop_next(Peer& p) {
  if (p.shaper || !p.high.empty()) {
    std::deque<OutFrame>& fifo = p.shaper ? p.delayed : p.high;
    p.inflight = std::move(fifo.front());
    fifo.pop_front();
  } else {
    p.inflight = std::move(p.low.begin()->second);
    p.low.erase(p.low.begin());
  }
  p.has_inflight = true;
  p.inflight_off = 0;
}

void TcpEnv::update_interest(Peer& p) {
  if (p.fd < 0) return;
  // EPOLLOUT only while there is something to send now: a shaped peer
  // waiting on its bucket or delay line would otherwise spin the loop on an
  // always-writable socket; the shape timer calls flush_writes instead.
  const double now = p.shaper ? owner_loop(p.id).now() : 0.0;
  const bool want =
      p.connecting || p.has_inflight || has_sendable(p, now);
  const std::uint32_t events =
      EPOLLIN | (want ? static_cast<std::uint32_t>(EPOLLOUT) : 0u);
  if (want == p.want_write) return;
  p.want_write = want;
  owner_loop(p.id).mod_fd(p.fd, events);
}

void TcpEnv::add_iov(const OutFrame& f, std::size_t off, iovec* iov,
                     std::size_t& n) {
  if (off < f.header_len) {
    iov[n].iov_base = const_cast<std::uint8_t*>(f.header.data()) + off;
    iov[n].iov_len = f.header_len - off;
    ++n;
    off = 0;
  } else {
    off -= f.header_len;
  }
  const std::size_t body_size = f.body ? f.body->size() : 0;
  if (off < body_size) {
    iov[n].iov_base = const_cast<std::uint8_t*>(f.body->data()) + off;
    iov[n].iov_len = body_size - off;
    ++n;
  }
}

double TcpEnv::pay_frames(Peer& p, double now) {
  LinkShaper& sh = *p.shaper;
  for (;;) {
    const bool high = !p.high.empty();
    if (!high && p.low.empty()) return kNever;
    OutFrame& f = high ? p.high.front() : p.low.begin()->second;
    if (!sh.unlimited_rate()) {
      const std::size_t got = sh.take(now, f.size() - f.paid);
      if (got == 0) {
        p.stats.shaper_waits.fetch_add(1, relaxed);
        return sh.next_release(now);
      }
      f.paid += got;
      if (f.paid < f.size()) continue;
    }
    p.last_release = std::max(now + sh.delay_draw(), p.last_release);
    f.ready_at = p.last_release;
    p.delayed.push_back(std::move(f));
    if (high) {
      p.high.pop_front();
    } else {
      p.low.erase(p.low.begin());
    }
  }
}

void TcpEnv::flush_writes(Peer& p) {
  // Shaped: first pay for as many queued frames as the bucket allows, then
  // write whatever the delay line has released.
  const double now = p.shaper ? owner_loop(p.id).now() : 0.0;
  double wake = p.shaper ? pay_frames(p, now) : kNever;
  while (p.fd >= 0) {
    if (!p.has_inflight) {
      if (!has_sendable(p, now)) break;
      pop_next(p);
    }
    // Gather the inflight remainder plus as many sendable frames as fit in
    // one sendmsg — consume_written pops them in exactly this order.
    iovec iov[kMaxIov];
    std::size_t niov = 0;
    add_iov(p.inflight, p.inflight_off, iov, niov);
    if (p.shaper) {
      for (const OutFrame& f : p.delayed) {
        if (niov + 2 > kMaxIov || f.ready_at > now) break;
        add_iov(f, 0, iov, niov);
      }
    } else {
      for (const OutFrame& f : p.high) {
        if (niov + 2 > kMaxIov) break;
        add_iov(f, 0, iov, niov);
      }
      for (const auto& [key, f] : p.low) {
        if (niov + 2 > kMaxIov) break;
        add_iov(f, 0, iov, niov);
      }
    }
    msghdr mh{};
    mh.msg_iov = iov;
    mh.msg_iovlen = niov;
    // MSG_NOSIGNAL: a peer that closed mid-write must surface as EPIPE, not
    // as a process-killing SIGPIPE.
    const ssize_t n = ::sendmsg(p.fd, &mh, MSG_NOSIGNAL);
    if (n > 0) {
      consume_written(p, static_cast<std::size_t>(n));
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n < 0 && errno == EINTR) continue;
    disconnect(p, "write error");
    return;
  }
  // A released frame that hit EAGAIN waits for EPOLLOUT; an unreleased
  // delay-line head waits for its release time.
  if (p.shaper && !p.has_inflight && !p.delayed.empty() &&
      p.delayed.front().ready_at > now) {
    wake = std::min(wake, p.delayed.front().ready_at);
  }
  if (wake != kNever) schedule_shape_wake(p, wake);
  update_interest(p);
}

void TcpEnv::schedule_shape_wake(Peer& p, double when) {
  // Keep a pending wake unless this one is earlier: an early wake only
  // re-runs flush_writes, which plans the next one.
  EventLoop& owner = owner_loop(p.id);
  if (p.shape_timer != 0) {
    if (p.shape_wake_at <= when) return;
    owner.cancel_timer(p.shape_timer);
  }
  const int id = p.id;
  p.shape_wake_at = when;
  p.shape_timer = owner.at(when, [this, id] {
    Peer& q = peer(id);
    q.shape_timer = 0;
    if (q.fd >= 0 && !q.connecting) flush_writes(q);
  });
}

void TcpEnv::consume_written(Peer& p, std::size_t n) {
  // Pop order mirrors the gather order in flush_writes. Only the last
  // partially-written frame stays behind as the new inflight.
  while (n > 0) {
    if (!p.has_inflight) pop_next(p);
    const std::size_t frame_size = p.inflight.size();
    const std::size_t remaining = frame_size - p.inflight_off;
    if (n >= remaining) {
      n -= remaining;
      p.stats.sent_frames.fetch_add(1, relaxed);
      p.stats.sent_bytes.fetch_add(frame_size, relaxed);
      p.stats.queued_bytes.fetch_sub(frame_size, relaxed);
      p.has_inflight = false;
      p.inflight = OutFrame{};
    } else {
      p.inflight_off += n;
      n = 0;
    }
  }
}

// --- read path ---------------------------------------------------------------

void TcpEnv::batch_add(RecvBatch& b, int from, ByteView frame) {
  if (!b.buf || b.used + frame.size() > b.buf.capacity()) {
    post_batch(b);
    b.buf = PooledBuf(std::max(frame.size(), kRecvBatchBytes));
    b.used = 0;
  }
  b.from = from;
  if (!frame.empty()) {
    std::memcpy(b.buf.data() + b.used, frame.data(), frame.size());
  }
  b.spans.emplace_back(static_cast<std::uint32_t>(b.used),
                       static_cast<std::uint32_t>(frame.size()));
  b.used += frame.size();
}

void TcpEnv::post_batch(RecvBatch& b) {
  if (b.spans.empty()) return;
  loop_.post([this, from = b.from, buf = std::move(b.buf),
              spans = std::move(b.spans)] {
    if (receiver_ == nullptr) return;
    for (const auto& [off, len] : spans) {
      receiver_->on_receive(from, ByteView(buf.data() + off, len));
    }
    // `buf` recycles to the pool here, on the home thread — the pool's
    // global tier makes it reusable by the transport loop that filled it.
  });
  b.buf = PooledBuf();
  b.used = 0;
  b.spans.clear();
}

bool TcpEnv::drain_frames(Peer& p) {
  ByteView fr;
  RecvBatch batch;  // multi-loop only; unused (and empty) inline
  bool ok = true;
  while (p.fd >= 0 && p.reader.next_view(fr)) {
    WireFrame wf;
    if (!decode_wire(fr, wf) || wf.kind != WireKind::Data) {
      disconnect(p, "malformed frame");
      ok = false;
      break;
    }
    p.stats.recv_frames.fetch_add(1, relaxed);
    p.stats.recv_bytes.fetch_add(fr.size(), relaxed);
    if (!multi()) {
      // Inline delivery: the view into the reader's pooled buffer stays
      // valid for the duration of the callback (nothing feeds the reader
      // until it returns).
      if (receiver_ != nullptr) receiver_->on_receive(p.id, wf.data);
    } else {
      // Cross-thread delivery: copy into the pooled batch bound for the
      // home loop. Frames already decoded stay delivered even if a later
      // frame in this burst kills the connection.
      batch_add(batch, p.id, wf.data);
    }
  }
  if (ok && p.fd >= 0 && p.reader.failed()) {
    disconnect(p, "oversized frame");
    ok = false;
  }
  if (multi()) post_batch(batch);
  return ok && p.fd >= 0;
}

void TcpEnv::handle_readable(Peer& p) {
  while (p.fd >= 0) {
    // Zero-copy ingest: the reader pulls straight from the socket into its
    // pooled buffer; frames are then handed out as views.
    const ssize_t n = p.reader.fill_from(p.fd);
    if (n > 0) {
      if (!drain_frames(p)) return;
      continue;
    }
    if (n == 0) {
      disconnect(p, "peer closed");
      return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    disconnect(p, "read error");  // includes EPROTO from a poisoned reader
    return;
  }
}

void TcpEnv::handle_peer_event(int id, std::uint32_t events) {
  Peer& p = peer(id);
  if (p.fd < 0) return;
  if (p.connecting) {
    if ((events & (EPOLLOUT | EPOLLERR | EPOLLHUP)) != 0) {
      int err = 0;
      socklen_t len = sizeof err;
      getsockopt(p.fd, SOL_SOCKET, SO_ERROR, &err, &len);
      if (err != 0) {
        disconnect(p, "connect failed");
        return;
      }
      on_dial_connected(p);
    }
    return;
  }
  if ((events & (EPOLLERR | EPOLLHUP)) != 0) {
    disconnect(p, "socket error");
    return;
  }
  if ((events & EPOLLIN) != 0) {
    handle_readable(p);
    if (p.fd < 0) return;
  }
  if ((events & EPOLLOUT) != 0) flush_writes(p);
}

// --- connection lifecycle ----------------------------------------------------

void TcpEnv::disconnect(Peer& p, const char* /*why*/) {
  if (p.fd < 0) return;
  EventLoop& owner = owner_loop(p.id);
  // A connection that proved itself (stayed up past one full backoff
  // period) earns an instant redial; one that died young — connect refused,
  // handshake rejected by the acceptor, immediate RST — keeps climbing the
  // exponential ladder, so a rejecting peer is not hammered 20x/second.
  const bool was_established = !p.connecting;
  if (was_established &&
      owner.now() - p.established_at >= opt_.reconnect_max) {
    p.backoff = 0;
  }
  owner.del_fd(p.fd);
  close(p.fd);
  p.fd = -1;
  p.connecting = false;
  p.want_write = false;
  if (p.shape_timer != 0) {
    owner.cancel_timer(p.shape_timer);
    p.shape_timer = 0;
  }
  p.stats.connected.store(false, relaxed);
  // The reader is NOT reset here: disconnect() can fire from inside this
  // peer's own drain_frames (a receiver callback sends, the send hits a
  // write error) while a frame view into the reader's buffer is still live.
  // Stale bytes are discarded at the next dial()/adoption instead.
  if (p.has_inflight) {
    // A partially-written frame cannot resume on a fresh connection.
    const std::size_t size = p.inflight.size();
    p.stats.queued_bytes.fetch_sub(size, relaxed);
    p.stats.dropped_frames.fetch_add(1, relaxed);
    p.stats.dropped_bytes.fetch_add(size, relaxed);
    p.has_inflight = false;
    p.inflight = OutFrame{};
  }
  if (p.dialer) {
    p.stats.reconnects.fetch_add(1, relaxed);
    schedule_dial(p);
  }
  // Acceptor side: wait for the dialer to come back.
}

void TcpEnv::schedule_dial(Peer& p) {
  p.backoff = p.backoff <= 0 ? opt_.reconnect_min
                             : std::min(p.backoff * 2, opt_.reconnect_max);
  const int id = p.id;
  p.redial_timer = owner_loop(id).after(p.backoff, [this, id] {
    peer(id).redial_timer = 0;
    dial(peer(id));
  });
}

void TcpEnv::dial(Peer& p) {
  if (p.fd >= 0) return;
  p.reader.reset();  // drop any bytes left over from a dead connection
  sockaddr_in addr{};
  if (!resolve_ipv4(p.addr.host, p.addr.port, addr)) {
    schedule_dial(p);
    return;
  }
  const int fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0 || !set_nonblocking(fd)) {
    if (fd >= 0) close(fd);
    schedule_dial(p);
    return;
  }
  set_nodelay(fd);
  const int rc = connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr);
  if (rc != 0 && errno != EINPROGRESS) {
    close(fd);
    schedule_dial(p);
    return;
  }
  p.fd = fd;
  p.connecting = rc != 0;
  p.want_write = true;
  const int id = p.id;
  owner_loop(id).add_fd(fd, EPOLLIN | EPOLLOUT, [this, id](std::uint32_t ev) {
    handle_peer_event(id, ev);
  });
  if (rc == 0) on_dial_connected(p);
}

void TcpEnv::on_dial_connected(Peer& p) {
  p.connecting = false;
  p.established_at = owner_loop(p.id).now();
  p.stats.connected.store(true, relaxed);
  // The handshake frame goes out before anything queued while disconnected
  // (unpaid, and released at once on a shaped peer).
  const Bytes hello = encode_hello(static_cast<std::uint32_t>(self_));
  OutFrame f;
  f.header_len = static_cast<std::uint8_t>(hello.size());
  std::memcpy(f.header.data(), hello.data(), hello.size());
  p.stats.queued_bytes.fetch_add(f.size(), relaxed);
  (p.shaper ? p.delayed : p.high).push_front(std::move(f));
  flush_writes(p);
}

void TcpEnv::handle_listener(std::uint32_t /*events*/) {
  while (true) {
    const int fd = accept4(listen_fd_, nullptr, nullptr,
                           SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      break;
    }
    if (pending_.size() >= kMaxPendingAccepts) {
      close(fd);
      continue;
    }
    set_nodelay(fd);
    const std::uint64_t id = next_pending_id_++;
    // Handshake deadline: a socket that has not identified itself in time
    // may not keep holding a pending slot. The id guards against the fd
    // number having been closed and reused by the time the timer fires.
    const std::uint64_t timer =
        listener_loop().after(opt_.handshake_timeout, [this, fd, id] {
          auto it = pending_.find(fd);
          if (it != pending_.end() && it->second.id == id) {
            it->second.timer = 0;
            close_pending(fd);
          }
        });
    pending_.emplace(fd,
                     PendingAccept{fd, id, timer, FrameReader(opt_.max_frame_bytes)});
    listener_loop().add_fd(fd, EPOLLIN, [this, fd](std::uint32_t ev) {
      handle_pending_accept(fd, ev);
    });
  }
}

void TcpEnv::close_pending(int fd) {
  auto it = pending_.find(fd);
  if (it != pending_.end() && it->second.timer != 0) {
    listener_loop().cancel_timer(it->second.timer);
  }
  listener_loop().del_fd(fd);
  close(fd);
  pending_.erase(fd);
}

void TcpEnv::handle_pending_accept(int fd, std::uint32_t events) {
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
        // First frame must identify a larger-id peer (they dial us).
        WireFrame wf;
        if (!decode_wire(fr, wf) || wf.kind != WireKind::Hello ||
            wf.hello_node <= static_cast<std::uint32_t>(self_) ||
            wf.hello_node >= static_cast<std::uint32_t>(cfg_.n)) {
          close_pending(fd);
          return;
        }
        if (it->second.timer != 0) listener_loop().cancel_timer(it->second.timer);
        FrameReader reader = std::move(it->second.reader);
        pending_.erase(it);
        // Swap the pending-accept handler for the peer handler — possibly
        // on a different loop: the socket is adopted by its owner.
        listener_loop().del_fd(fd);
        const int peer_id = static_cast<int>(wf.hello_node);
        if (!multi() || owner_index(peer_id) == 0) {
          adopt_accepted(fd, peer_id, std::move(reader));
        } else {
          owner_loop(peer_id).post(
              [this, fd, peer_id, reader = std::move(reader)]() mutable {
                adopt_accepted(fd, peer_id, std::move(reader));
              });
        }
        return;
      }
      if (it->second.reader.buffered_bytes() > kMaxPreAuthBytes) {
        // Streaming a large declared frame instead of a Hello: not a
        // replica, and not allowed to occupy pre-auth memory.
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

void TcpEnv::adopt_accepted(int fd, int peer_id, FrameReader&& reader) {
  Peer& p = peer(peer_id);
  // A fresh connection replaces a stale one: the dialer only reconnects
  // when it saw a failure we may not have noticed yet.
  if (p.fd >= 0) disconnect(p, "replaced by new connection");
  p.fd = fd;
  p.connecting = false;
  p.want_write = false;
  p.stats.connected.store(true, relaxed);
  p.reader = std::move(reader);
  owner_loop(peer_id).add_fd(fd, EPOLLIN, [this, peer_id](std::uint32_t ev) {
    handle_peer_event(peer_id, ev);
  });
  // Frames that arrived glued to the Hello are already buffered; process
  // them, then flush anything queued for this peer while it was away.
  if (drain_frames(p)) flush_writes(p);
}

// --- introspection -----------------------------------------------------------

TcpEnv::PeerStats TcpEnv::peer_stats(int id) const {
  const PeerCounters& c = peer(id).stats;
  PeerStats s;
  s.connected = c.connected.load(relaxed);
  s.queued_bytes = c.queued_bytes.load(relaxed);
  s.sent_frames = c.sent_frames.load(relaxed);
  s.sent_bytes = c.sent_bytes.load(relaxed);
  s.recv_frames = c.recv_frames.load(relaxed);
  s.recv_bytes = c.recv_bytes.load(relaxed);
  s.dropped_frames = c.dropped_frames.load(relaxed);
  s.dropped_bytes = c.dropped_bytes.load(relaxed);
  s.reconnects = c.reconnects.load(relaxed);
  s.shaped_drops = c.shaped_drops.load(relaxed);
  s.shaped_drop_bytes = c.shaped_drop_bytes.load(relaxed);
  s.shaper_waits = c.shaper_waits.load(relaxed);
  return s;
}

int TcpEnv::connected_peers() const {
  int count = 0;
  for (const Peer& p : peers_) {
    if (p.id != self_ && p.stats.connected.load(relaxed)) ++count;
  }
  return count;
}

void TcpEnv::drop_connection_for_test(int id) {
  if (!multi()) {
    disconnect(peer(id), "test");
    return;
  }
  owner_loop(id).post([this, id] { disconnect(peer(id), "test"); });
}

}  // namespace dl::net

// The TCP runtime backend, exercised fully in-process: several TcpEnvs on
// loopback sockets sharing one EventLoop (the loop does not care whose fds
// it dispatches), so the tests stay single-threaded and deterministic to
// schedule while every byte still crosses a real kernel socket.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "dl/node.hpp"
#include "net/event_loop.hpp"
#include "net/tcp_env.hpp"

namespace dl::net {
namespace {

ClusterConfig loopback_cluster(int n) {
  ClusterConfig cfg;
  cfg.n = n;
  cfg.f = (n - 1) / 3;
  for (int i = 0; i < n; ++i) {
    cfg.nodes.push_back({i, "127.0.0.1", 0});  // port 0: pick at bind time
  }
  return cfg;
}

// Every node's egress through one shared bucket (a wildcard [[link]]).
ClusterConfig shaped_cluster(int n, double bytes_per_sec, double delay_ms) {
  ClusterConfig cfg = loopback_cluster(n);
  LinkShapeRule rule;
  rule.schedule.rates = {bytes_per_sec};
  rule.delay_ms = delay_ms;
  cfg.links.push_back(rule);
  return cfg;
}

// Builds envs on ephemeral ports and cross-wires the real ports.
std::vector<std::unique_ptr<TcpEnv>> make_envs(EventLoop& loop,
                                               const ClusterConfig& cfg,
                                               TcpEnv::Options opt = {}) {
  std::vector<std::unique_ptr<TcpEnv>> envs;
  for (int i = 0; i < cfg.n; ++i) {
    envs.push_back(std::make_unique<TcpEnv>(loop, cfg, i, opt));
  }
  for (auto& env : envs) {
    for (int j = 0; j < cfg.n; ++j) {
      env->set_peer_port(j, envs[static_cast<std::size_t>(j)]->listen_port());
    }
  }
  return envs;
}

TEST(EventLoop, TimerOrderingCancelAndPost) {
  EventLoop loop;
  std::vector<int> fired;
  loop.after(0.02, [&] { fired.push_back(2); });
  loop.after(0.01, [&] { fired.push_back(1); });
  const auto id = loop.after(0.015, [&] { fired.push_back(99); });
  // Same-deadline timers fire in creation order.
  loop.after(0.02, [&] { fired.push_back(3); });
  EXPECT_TRUE(loop.cancel_timer(id));
  EXPECT_FALSE(loop.cancel_timer(id));
  loop.post([&] { fired.push_back(0); });
  loop.after(0.03, [&loop] { loop.stop(); });
  loop.run();
  EXPECT_EQ(fired, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_GE(loop.now(), 0.03);
}

TEST(EventLoop, NestedTimersAndPosts) {
  EventLoop loop;
  int depth = 0;
  loop.post([&] {
    loop.post([&] {
      ++depth;
      loop.after(0.0, [&] {
        ++depth;
        loop.stop();
      });
    });
  });
  loop.run();
  EXPECT_EQ(depth, 2);
}

// Minimal Receiver: records envelopes, optionally echoes them back.
struct Recorder final : runtime::Receiver {
  runtime::Env* env = nullptr;
  bool echo = false;
  std::vector<std::pair<int, Envelope>> got;

  void on_receive(int from, ByteView bytes) override {
    auto e = Envelope::decode(bytes);
    ASSERT_TRUE(e.has_value());
    got.emplace_back(from, *e);
    if (echo && from != env->local_id()) {
      Envelope reply = *e;
      reply.epoch += 1000;
      env->send(from, reply, {});
    }
  }
};

Envelope test_envelope(std::uint64_t epoch, const std::string& text) {
  Envelope e;
  e.kind = MsgKind::VidReady;
  e.epoch = epoch;
  e.instance = 1;
  e.body = bytes_of(text);
  return e;
}

TEST(TcpEnv, TwoNodeRequestResponseAndLocalLoopback) {
  EventLoop loop;
  const ClusterConfig cfg = loopback_cluster(2);
  auto envs = make_envs(loop, cfg);
  Recorder r0, r1;
  r0.env = envs[0].get();
  r0.echo = true;
  r1.env = envs[1].get();
  envs[0]->start(r0);
  envs[1]->start(r1);

  // Node 1 sends to node 0 (cross-socket) and to itself (loopback).
  loop.after(0.0, [&] {
    envs[1]->send(0, test_envelope(7, "ping"), {});
    envs[1]->send(1, test_envelope(8, "self"), {});
  });
  loop.after(5.0, [&loop] { loop.stop(); });  // watchdog
  // Poll for completion: reply received + self-delivery done.
  std::function<void()> poll = [&] {
    if (r1.got.size() >= 2 && !r0.got.empty()) {
      loop.stop();
      return;
    }
    loop.after(0.01, poll);
  };
  loop.after(0.0, poll);
  loop.run();

  ASSERT_EQ(r0.got.size(), 1u);
  EXPECT_EQ(r0.got[0].first, 1);
  EXPECT_EQ(r0.got[0].second.epoch, 7u);
  EXPECT_EQ(to_string(ByteView(r0.got[0].second.body)), "ping");
  ASSERT_EQ(r1.got.size(), 2u);
  // Self-delivery arrives first (posted locally, no socket round-trip).
  EXPECT_EQ(r1.got[0].first, 1);
  EXPECT_EQ(r1.got[0].second.epoch, 8u);
  EXPECT_EQ(r1.got[1].first, 0);
  EXPECT_EQ(r1.got[1].second.epoch, 1007u);
  EXPECT_EQ(envs[0]->connected_peers(), 1);
  EXPECT_EQ(envs[1]->connected_peers(), 1);
}

// Runs `loop` until `done()` holds (polled every 10 ms) or `timeout`
// seconds pass; returns whether `done()` held.
bool run_until(EventLoop& loop, double timeout, std::function<bool()> done) {
  bool ok = false;
  std::uint64_t next_poll = 0;
  std::function<void()> poll = [&] {
    if (done()) {
      ok = true;
      loop.stop();
      return;
    }
    next_poll = loop.after(0.01, poll);
  };
  next_poll = loop.after(0.0, poll);
  const std::uint64_t watchdog = loop.after(timeout, [&loop] { loop.stop(); });
  loop.run();
  // Neither timer may outlive this frame's `poll` and `done`.
  loop.cancel_timer(next_poll);
  loop.cancel_timer(watchdog);
  return ok;
}

bool both_connected(const std::vector<std::unique_ptr<TcpEnv>>& envs) {
  return envs[0]->connected_peers() == 1 && envs[1]->connected_peers() == 1;
}

// Records each envelope's epoch, body size and arrival time.
struct TimedRecorder final : runtime::Receiver {
  EventLoop* loop = nullptr;
  struct Arrival {
    std::uint64_t epoch;
    std::size_t body_bytes;
    double at;
  };
  std::vector<Arrival> got;

  void on_receive(int /*from*/, ByteView bytes) override {
    auto e = Envelope::decode(bytes);
    ASSERT_TRUE(e.has_value());
    got.push_back({e->epoch, e->body.size(), loop->now()});
  }
};

TEST(TcpEnv, ShapedHighOvertakesPartlyPaidLow) {
  // At 1 MB/s a 600 KB Low frame takes ~0.6 s to pay for. A High frame
  // enqueued 0.1 s into that payment is paid first, so it reaches the peer
  // first although the Low frame was queued earlier.
  EventLoop loop;
  auto envs = make_envs(loop, shaped_cluster(2, 1e6, 20));
  Recorder r0, r1;
  r0.env = envs[0].get();
  r1.env = envs[1].get();
  envs[0]->start(r0);
  envs[1]->start(r1);
  ASSERT_TRUE(run_until(loop, 5.0, [&] { return both_connected(envs); }));

  constexpr std::uint64_t kLowEpoch = 1;
  constexpr std::uint64_t kHighEpoch = 2;
  runtime::SendOpts low;
  low.cls = runtime::TrafficClass::Low;
  envs[1]->send(0, test_envelope(kLowEpoch, std::string(600 * 1024, 'l')), low);
  loop.after(0.1, [&] { envs[1]->send(0, test_envelope(kHighEpoch, "h"), {}); });
  ASSERT_TRUE(run_until(loop, 10.0, [&] { return r0.got.size() >= 2; }));

  ASSERT_EQ(r0.got.size(), 2u);
  EXPECT_EQ(r0.got[0].second.epoch, kHighEpoch);
  EXPECT_EQ(r0.got[1].second.epoch, kLowEpoch);
}

TEST(TcpEnv, ShapedDelayOverlapsTransmission) {
  // A Low backlog stays queued while a High frame goes out every 5 ms. Each
  // frame waits out its 20 ms delay after it is paid, while the bucket pays
  // for the next ones, so the Low class keeps nearly the whole rate. No
  // frame may beat its delay.
  constexpr double kRate = 1e6;  // bytes/s
  constexpr double kDelay = 0.020;
  constexpr double kRun = 2.0;
  constexpr std::size_t kLowBody = 16 * 1024;
  constexpr std::size_t kBacklog = 256 * 1024;

  EventLoop loop;
  auto envs = make_envs(loop, shaped_cluster(2, kRate, kDelay * 1000));
  TimedRecorder r0;
  Recorder r1;
  r0.loop = &loop;
  r1.env = envs[1].get();
  envs[0]->start(r0);
  envs[1]->start(r1);
  ASSERT_TRUE(run_until(loop, 5.0, [&] { return both_connected(envs); }));

  // Epochs identify frames: odd = Low, even = High.
  std::map<std::uint64_t, double> enqueued_at;
  std::uint64_t next_low = 1;
  std::uint64_t next_high = 2;
  runtime::SendOpts low;
  low.cls = runtime::TrafficClass::Low;
  const double t0 = loop.now();
  std::function<void()> tick = [&] {
    if (loop.now() >= t0 + kRun) return;
    enqueued_at[next_high] = loop.now();
    envs[1]->send(0, test_envelope(next_high, "h"), {});
    next_high += 2;
    while (envs[1]->peer_stats(0).queued_bytes < kBacklog) {
      enqueued_at[next_low] = loop.now();
      envs[1]->send(0, test_envelope(next_low, std::string(kLowBody, 'l')), low);
      next_low += 2;
    }
    loop.after(0.005, tick);
  };
  loop.after(0.0, tick);
  // Frames paid by the end of the run arrive within one delay of it.
  const double t_end = t0 + kRun + kDelay;
  loop.at(t_end + 0.1, [&loop] { loop.stop(); });
  loop.run();

  std::size_t low_bytes = 0;
  std::size_t highs = 0;
  for (const TimedRecorder::Arrival& a : r0.got) {
    ASSERT_TRUE(enqueued_at.count(a.epoch)) << "unknown epoch " << a.epoch;
    EXPECT_GE(a.at - enqueued_at[a.epoch], kDelay - 1e-9)
        << "epoch " << a.epoch << " beat the link delay";
    if (a.epoch % 2 == 0) {
      ++highs;
    } else if (a.at <= t_end) {
      low_bytes += a.body_bytes;
    }
  }
  EXPECT_GT(highs, 0u);
  EXPECT_GE(static_cast<double>(low_bytes) / kRun, 0.85 * kRate)
      << "Low goodput starved behind delayed High frames";
}

TEST(TcpEnv, ReconnectAfterDrop) {
  EventLoop loop;
  const ClusterConfig cfg = loopback_cluster(2);
  TcpEnv::Options opt;
  opt.reconnect_min = 0.01;
  opt.reconnect_max = 0.05;
  auto envs = make_envs(loop, cfg, opt);
  Recorder r0, r1;
  r0.env = envs[0].get();
  r1.env = envs[1].get();
  envs[0]->start(r0);
  envs[1]->start(r1);

  // Once connected, kill the connection from the ACCEPTOR side (node 0;
  // node 1 is the dialer and must notice and redial). A frame written in
  // the window before the dialer observes the break rides the dead socket
  // and is legitimately lost, so keep sending until one arrives over the
  // re-established connection.
  bool dropped = false;
  std::function<void()> tick = [&] {
    if (!dropped) {
      if (envs[0]->connected_peers() == 1) {
        envs[0]->drop_connection_for_test(1);
        dropped = true;
      }
    } else if (!r0.got.empty()) {
      loop.stop();
      return;
    } else {
      envs[1]->send(0, test_envelope(42, "after-drop"), {});
    }
    loop.after(0.02, tick);
  };
  loop.after(0.0, tick);
  loop.after(5.0, [&loop] { loop.stop(); });  // watchdog
  loop.run();

  ASSERT_GE(r0.got.size(), 1u);
  EXPECT_EQ(r0.got[0].second.epoch, 42u);
  EXPECT_EQ(to_string(ByteView(r0.got[0].second.body)), "after-drop");
  EXPECT_GE(envs[1]->peer_stats(0).reconnects, 1u);
}

TEST(TcpEnv, BackpressureDropsWhenQueueFull) {
  // Peer 0 never starts, so node 1's frames to it queue until the byte cap
  // rejects them — counted, not fatal, and node 1 stays healthy.
  EventLoop loop;
  const ClusterConfig cfg = loopback_cluster(2);
  TcpEnv::Options opt;
  opt.max_queue_bytes = 4096;
  opt.max_frame_bytes = 1024;
  auto envs = make_envs(loop, cfg, opt);
  Recorder r1;
  r1.env = envs[1].get();
  envs[1]->start(r1);  // env 0 intentionally not started

  loop.post([&] {
    // A frame above the limit is rejected outright (every receiver would
    // have to tear the connection down), independent of queue occupancy.
    envs[1]->send(0, test_envelope(0, std::string(5000, 'y')), {});
    EXPECT_EQ(envs[1]->peer_stats(0).dropped_frames, 1u);
    EXPECT_EQ(envs[1]->peer_stats(0).queued_bytes, 0u);
    for (int i = 0; i < 100; ++i) {
      envs[1]->send(0, test_envelope(static_cast<std::uint64_t>(i), std::string(200, 'x')), {});
    }
    loop.stop();
  });
  loop.run();

  const auto st = envs[1]->peer_stats(0);
  EXPECT_FALSE(st.connected);
  EXPECT_GT(st.dropped_frames, 1u);
  EXPECT_LE(st.queued_bytes, 4096u);
  EXPECT_GT(st.queued_bytes, 0u);
}

TEST(TcpEnv, HandshakeTimeoutClosesSilentConnections) {
  // A socket that connects but never sends a Hello must be evicted — it may
  // not hold a pending-accept slot (or pre-auth memory) indefinitely.
  EventLoop loop;
  const ClusterConfig cfg = loopback_cluster(2);
  TcpEnv::Options opt;
  opt.handshake_timeout = 0.05;
  auto envs = make_envs(loop, cfg, opt);
  Recorder r0;
  r0.env = envs[0].get();
  envs[0]->start(r0);  // env 1 not started: we play the client ourselves

  const int raw = socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(raw, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(envs[0]->listen_port());
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ASSERT_EQ(::connect(raw, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);

  bool closed = false;
  std::function<void()> poll = [&] {
    char c;
    const ssize_t n = recv(raw, &c, 1, MSG_DONTWAIT);
    if (n == 0) {  // orderly shutdown from the replica
      closed = true;
      loop.stop();
      return;
    }
    loop.after(0.01, poll);
  };
  loop.after(0.01, poll);
  loop.after(3.0, [&loop] { loop.stop(); });  // watchdog
  loop.run();
  close(raw);
  EXPECT_TRUE(closed);
}

// The real thing: a 4-replica DispersedLedger cluster over loopback TCP.
// Every replica must commit the same ledger prefix. `net_loops` >= 2 runs
// each replica's peer connections on private transport threads (per-peer
// loop affinity); the ledger outcome must be indistinguishable from the
// single-loop build.
void run_four_node_cluster(int net_loops, bool shaped = false) {
  constexpr int kN = 4;
  constexpr std::uint64_t kTargetEpochs = 25;

  EventLoop loop;
  const ClusterConfig cfg =
      shaped ? shaped_cluster(kN, 4e6, 5) : loopback_cluster(kN);
  TcpEnv::Options opt;
  opt.net_loops = net_loops;
  auto envs = make_envs(loop, cfg, opt);

  struct Delivery {
    std::uint64_t at_epoch;
    std::uint64_t epoch;
    int proposer;
    std::uint64_t payload;
    bool operator==(const Delivery&) const = default;
  };
  std::vector<std::unique_ptr<core::DlNode>> nodes;
  std::vector<std::vector<Delivery>> logs(kN);
  for (int i = 0; i < kN; ++i) {
    core::NodeConfig nc = core::NodeConfig::dispersed_ledger(kN, 1, i);
    nc.propose_delay = 0.003;
    nc.backlog_tx_bytes = 64;  // self-filling blocks: no client needed
    nc.max_block_bytes = 4096;
    nodes.push_back(std::make_unique<core::DlNode>(nc, *envs[i]));
    auto* log = &logs[static_cast<std::size_t>(i)];
    nodes.back()->set_delivery_callback(
        [log](std::uint64_t at, core::BlockKey key, const core::Block& b,
              double) {
          log->push_back({at, key.epoch, key.proposer, b.payload_bytes()});
        });
    envs[i]->start(*nodes.back());
  }

  bool timed_out = false;
  std::function<void()> poll = [&] {
    bool all_done = true;
    for (const auto& n : nodes) {
      if (n->stats().delivered_epochs < kTargetEpochs) all_done = false;
    }
    if (all_done) {
      loop.stop();
      return;
    }
    loop.after(0.01, poll);
  };
  loop.after(0.01, poll);
  loop.after(30.0, [&] {
    timed_out = true;
    loop.stop();
  });
  loop.run();

  ASSERT_FALSE(timed_out) << "cluster did not reach " << kTargetEpochs
                          << " epochs in time";
  // Filter to the closed prefix (epochs < target) and demand equality.
  auto prefix = [&](int i) {
    std::vector<Delivery> out;
    for (const Delivery& d : logs[static_cast<std::size_t>(i)]) {
      if (d.at_epoch < kTargetEpochs) out.push_back(d);
    }
    return out;
  };
  const auto p0 = prefix(0);
  EXPECT_GE(p0.size(), kTargetEpochs);
  for (int i = 1; i < kN; ++i) {
    EXPECT_EQ(prefix(i), p0) << "replica " << i << " diverged";
  }
  // And the chained fingerprints agree wherever block counts match (they
  // all delivered the closed prefix; fingerprints cover the whole log, so
  // compare only when equal length).
  for (int i = 1; i < kN; ++i) {
    if (logs[static_cast<std::size_t>(i)].size() == logs[0].size()) {
      EXPECT_EQ(nodes[static_cast<std::size_t>(i)]->delivery_fingerprint(),
                nodes[0]->delivery_fingerprint());
    }
  }
}

TEST(TcpCluster, FourNodeLedgerPrefixAgreement) { run_four_node_cluster(1); }

// Wire-level adversary e2e, mirroring the sim adversary tests on real
// sockets: node 3 is mute-but-connected (dials, Hellos, then every Data
// frame dies at its wire) and node 2 is a slow-drip sender (all egress
// paced through a crawl bucket). f=1 tolerates the mute node; the drip
// node is honest-but-slow and must still commit. All live replicas agree
// on the closed prefix.
TEST(TcpCluster, MuteAndSlowDripNodesToleratedWithIdenticalPrefixes) {
  constexpr int kN = 4;
  constexpr int kMute = 3;
  constexpr int kDrip = 2;
  constexpr std::uint64_t kTargetEpochs = 8;

  EventLoop loop;
  const ClusterConfig cfg = loopback_cluster(kN);
  std::vector<std::unique_ptr<TcpEnv>> envs;
  for (int i = 0; i < kN; ++i) {
    TcpEnv::Options opt;
    if (i == kMute) {
      opt.adversary = WireAdversary::Mute;
    } else if (i == kDrip) {
      opt.adversary = WireAdversary::SlowDrip;
      opt.slow_drip_bytes_per_sec = 32'768;
    }
    envs.push_back(std::make_unique<TcpEnv>(loop, cfg, i, opt));
  }
  for (auto& env : envs) {
    for (int j = 0; j < kN; ++j) {
      env->set_peer_port(j, envs[static_cast<std::size_t>(j)]->listen_port());
    }
  }

  struct Delivery {
    std::uint64_t at_epoch;
    std::uint64_t epoch;
    int proposer;
    std::uint64_t payload;
    bool operator==(const Delivery&) const = default;
  };
  std::vector<std::unique_ptr<core::DlNode>> nodes;
  std::vector<std::vector<Delivery>> logs(kN);
  for (int i = 0; i < kN; ++i) {
    core::NodeConfig nc = core::NodeConfig::dispersed_ledger(kN, 1, i);
    nc.propose_delay = 0.003;
    nc.backlog_tx_bytes = 64;
    nc.max_block_bytes = 4096;
    nodes.push_back(std::make_unique<core::DlNode>(nc, *envs[i]));
    auto* log = &logs[static_cast<std::size_t>(i)];
    nodes.back()->set_delivery_callback(
        [log](std::uint64_t at, core::BlockKey key, const core::Block& b,
              double) {
          log->push_back({at, key.epoch, key.proposer, b.payload_bytes()});
        });
    envs[i]->start(*nodes.back());
  }

  bool timed_out = false;
  std::function<void()> poll = [&] {
    bool all_done = true;
    for (int i = 0; i < kN; ++i) {
      if (i == kMute) continue;  // may trail; the cluster closes without it
      if (nodes[static_cast<std::size_t>(i)]->stats().delivered_epochs <
          kTargetEpochs) {
        all_done = false;
      }
    }
    if (all_done) {
      loop.stop();
      return;
    }
    loop.after(0.01, poll);
  };
  loop.after(0.01, poll);
  loop.after(30.0, [&] {
    timed_out = true;
    loop.stop();
  });
  loop.run();

  ASSERT_FALSE(timed_out) << "cluster did not close " << kTargetEpochs
                          << " epochs with mute+drip nodes";
  auto prefix = [&](int i) {
    std::vector<Delivery> out;
    for (const Delivery& d : logs[static_cast<std::size_t>(i)]) {
      if (d.at_epoch < kTargetEpochs) out.push_back(d);
    }
    return out;
  };
  const auto p0 = prefix(0);
  EXPECT_GE(p0.size(), kTargetEpochs);
  for (int i = 1; i < kN; ++i) {
    if (i == kMute) continue;
    EXPECT_EQ(prefix(i), p0) << "replica " << i << " diverged";
  }
  // "Mute-but-connected": everyone still sees node 3's live connection...
  EXPECT_TRUE(envs[0]->peer_stats(kMute).connected);
  // ...while node 3's wire killed every outbound Data frame,
  EXPECT_GT(envs[kMute]->peer_stats(0).shaped_drops, 0u);
  EXPECT_EQ(envs[kMute]->peer_stats(0).sent_frames, 1u);  // the Hello only
  // and the drip node really was throttled by its bucket.
  std::uint64_t drip_waits = 0;
  for (int j = 0; j < kN; ++j) {
    if (j == kDrip) continue;
    drip_waits += envs[kDrip]->peer_stats(j).shaper_waits;
  }
  EXPECT_GT(drip_waits, 0u);
}

// Same cluster, but every replica splits its peer connections across two
// transport loops (peer id % 2). Exercises cross-loop send/broadcast
// batching, socket adoption onto owner loops, and receive-side batch
// delivery back to the home loop. In the TSan CI matrix.
TEST(TcpCluster, FourNodeLedgerPrefixAgreementTwoNetLoops) {
  run_four_node_cluster(2);
}

// The two-loop cluster with every node's egress shaped through one shared
// bucket (rate + delay): both transport loops of a node pay from the same
// LinkShaper and each runs its own peers' delay lines. In the TSan CI matrix.
TEST(TcpCluster, FourNodeShapedLedgerPrefixAgreementTwoNetLoops) {
  run_four_node_cluster(2, /*shaped=*/true);
}

}  // namespace
}  // namespace dl::net

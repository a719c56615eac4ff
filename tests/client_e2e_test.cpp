// The client ingress plane, end to end and fully in-process: a 4-replica
// DispersedLedger cluster over real loopback TCP (shared EventLoop, as in
// net_test.cpp), each replica fronted by a client::Gateway + Mempool, driven
// ONLY by dl::client::DlClient submissions — no synthetic workload. Every
// submitted transaction must be acked, committed exactly once, and observed
// with monotone commit epochs; replica ledgers must agree.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "client/dl_client.hpp"
#include "client/gateway.hpp"
#include "crypto/sha256.hpp"
#include "dl/node.hpp"
#include "net/event_loop.hpp"
#include "net/tcp_env.hpp"

namespace dl::client {
namespace {

net::ClusterConfig loopback_cluster(int n) {
  net::ClusterConfig cfg;
  cfg.n = n;
  cfg.f = (n - 1) / 3;
  for (int i = 0; i < n; ++i) {
    cfg.nodes.push_back({i, "127.0.0.1", 0, 0});  // ports picked at bind time
  }
  return cfg;
}

// One full replica: TCP env + DlNode + client gateway, all on one loop.
struct Replica {
  std::unique_ptr<net::TcpEnv> env;
  std::unique_ptr<core::DlNode> node;
  std::unique_ptr<Gateway> gateway;
  std::vector<std::pair<std::uint64_t, core::BlockKey>> ledger;
};

struct Cluster {
  net::EventLoop loop;
  std::vector<Replica> replicas;

  explicit Cluster(int n, Gateway::Options gopt = {}) {
    const net::ClusterConfig cfg = loopback_cluster(n);
    for (int i = 0; i < n; ++i) {
      replicas.emplace_back();
      replicas.back().env = std::make_unique<net::TcpEnv>(loop, cfg, i);
    }
    for (auto& r : replicas) {
      for (int j = 0; j < n; ++j) {
        r.env->set_peer_port(j, replicas[static_cast<std::size_t>(j)]
                                    .env->listen_port());
      }
    }
    for (int i = 0; i < n; ++i) {
      Replica& r = replicas[static_cast<std::size_t>(i)];
      core::NodeConfig nc = core::NodeConfig::dispersed_ledger(n, (n - 1) / 3, i);
      nc.propose_delay = 0.003;
      nc.max_block_bytes = 8192;
      r.node = std::make_unique<core::DlNode>(nc, *r.env);
      r.gateway = std::make_unique<Gateway>(loop, *r.node, "127.0.0.1",
                                            /*port=*/0, gopt);
      auto* rep = &r;
      r.node->set_delivery_callback([rep](std::uint64_t at, core::BlockKey key,
                                          const core::Block& b, double now) {
        rep->ledger.emplace_back(at, key);
        rep->gateway->on_block_delivered(at, key, b, now);
      });
      r.env->start(*r.node);
      r.gateway->start();
    }
  }

  // Runs until `done` or the watchdog; returns false on timeout. The
  // watchdog is cancelled on return, so it cannot fire into a later run.
  bool run_until(std::function<bool()> done, double watchdog = 30.0) {
    bool timed_out = false;
    std::function<void()> poll = [&] {
      if (done()) {
        loop.stop();
        return;
      }
      loop.after(0.01, poll);
    };
    loop.after(0.01, poll);
    const std::uint64_t wd = loop.after(watchdog, [&] {
      timed_out = true;
      loop.stop();
    });
    loop.run();
    loop.cancel_timer(wd);
    return !timed_out;
  }
};

Bytes unique_payload(std::uint64_t stream, std::uint64_t i, std::size_t n = 64) {
  Bytes p = random_bytes(n, (stream << 32) ^ i);
  for (int b = 0; b < 8; ++b) {
    p[static_cast<std::size_t>(b)] = static_cast<std::uint8_t>(i >> (8 * b));
    p[static_cast<std::size_t>(8 + b)] =
        static_cast<std::uint8_t>(stream >> (8 * b));
  }
  return p;
}

TEST(ClientE2E, TwoHundredTxsCommitExactlyOnceWithMonotoneEpochs) {
  constexpr int kN = 4;
  constexpr std::uint64_t kTxs = 200;
  Cluster cluster(kN);

  // Two clients on different replicas (commit notifications must route to
  // the right gateway and the right connection).
  DlClient c0(cluster.loop, "127.0.0.1", cluster.replicas[0].gateway->listen_port());
  DlClient c1(cluster.loop, "127.0.0.1", cluster.replicas[2].gateway->listen_port());
  c0.start();
  c1.start();

  struct Observed {
    std::set<std::uint64_t> committed_seqs;
    std::vector<std::uint64_t> epochs;
    std::uint64_t dup_commits = 0;
    std::uint64_t accepted_acks = 0;
    std::uint64_t stage_samples = 0;  // commits with a dispersal+BA stage
  };
  Observed o0, o1;
  auto observe = [](Observed& o) {
    return [&o](std::uint64_t seq, std::uint64_t epoch, std::uint32_t,
                double node_latency, const net::StageLatencies& stages) {
      if (!o.committed_seqs.insert(seq).second) ++o.dup_commits;
      o.epochs.push_back(epoch);
      EXPECT_GE(node_latency, 0.0);
      // The block was the node's own proposal, so the full stage breakdown
      // must be attributed: dispersal and BA cannot take literally zero
      // time over real sockets.
      o.stage_samples += stages.disperse_us > 0 && stages.ba_us > 0 ? 1 : 0;
    };
  };
  c0.set_commit_callback(observe(o0));
  c1.set_commit_callback(observe(o1));
  c0.set_ack_callback([&](std::uint64_t, net::TxStatus st) {
    if (st == net::TxStatus::Accepted) ++o0.accepted_acks;
  });
  c1.set_ack_callback([&](std::uint64_t, net::TxStatus st) {
    if (st == net::TxStatus::Accepted) ++o1.accepted_acks;
  });

  // Submit 100 txs per client, pipelined in small bursts.
  std::uint64_t submitted0 = 0, submitted1 = 0;
  std::function<void()> feed = [&] {
    for (int b = 0; b < 10 && submitted0 < kTxs / 2; ++b) {
      c0.submit(unique_payload(1, submitted0++));
    }
    for (int b = 0; b < 10 && submitted1 < kTxs / 2; ++b) {
      c1.submit(unique_payload(2, submitted1++));
    }
    if (submitted0 < kTxs / 2 || submitted1 < kTxs / 2) {
      cluster.loop.after(0.002, feed);
    }
  };
  cluster.loop.after(0.0, feed);

  ASSERT_TRUE(cluster.run_until([&] {
    return c0.stats().committed >= kTxs / 2 && c1.stats().committed >= kTxs / 2;
  })) << "committed " << c0.stats().committed << " + " << c1.stats().committed;

  // Exactly once, every one.
  EXPECT_EQ(o0.committed_seqs.size(), kTxs / 2);
  EXPECT_EQ(o1.committed_seqs.size(), kTxs / 2);
  EXPECT_EQ(o0.dup_commits, 0u);
  EXPECT_EQ(o1.dup_commits, 0u);
  EXPECT_EQ(o0.accepted_acks, kTxs / 2);
  EXPECT_EQ(o1.accepted_acks, kTxs / 2);
  EXPECT_EQ(c0.stats().outstanding, 0u);
  EXPECT_EQ(c1.stats().outstanding, 0u);
  EXPECT_EQ(c0.stats().rejected, 0u);
  EXPECT_EQ(c1.stats().rejected, 0u);
  EXPECT_GT(o0.stage_samples, 0u);
  EXPECT_GT(o1.stage_samples, 0u);

  // Each client observes monotone (nondecreasing) commit epochs: its node
  // notifies in delivery order.
  for (const Observed* o : {&o0, &o1}) {
    for (std::size_t i = 1; i < o->epochs.size(); ++i) {
      ASSERT_LE(o->epochs[i - 1], o->epochs[i]) << "at commit " << i;
    }
  }

  // Replica ledgers agree on the common prefix.
  std::size_t min_len = cluster.replicas[0].ledger.size();
  for (const auto& r : cluster.replicas) {
    min_len = std::min(min_len, r.ledger.size());
  }
  ASSERT_GT(min_len, 0u);
  for (int i = 1; i < kN; ++i) {
    for (std::size_t k = 0; k < min_len; ++k) {
      const auto& a = cluster.replicas[0].ledger[k];
      const auto& b = cluster.replicas[static_cast<std::size_t>(i)].ledger[k];
      ASSERT_EQ(a.first, b.first) << "replica " << i << " row " << k;
      ASSERT_TRUE(a.second == b.second) << "replica " << i << " row " << k;
    }
  }

  // Gateways accounted one admission and one notification per transaction.
  const auto& g0 = cluster.replicas[0].gateway->stats();
  EXPECT_EQ(g0.submits, kTxs / 2);
  EXPECT_EQ(g0.commits_notified, kTxs / 2);
  EXPECT_EQ(cluster.replicas[0].gateway->mempool().stats().committed, kTxs / 2);
}

TEST(ClientE2E, DuplicateSubmissionAckedDuplicateAndCommittedOnce) {
  Cluster cluster(4);
  DlClient cli(cluster.loop, "127.0.0.1",
               cluster.replicas[1].gateway->listen_port());
  cli.start();

  std::vector<net::TxStatus> acks;
  cli.set_ack_callback(
      [&](std::uint64_t, net::TxStatus st) { acks.push_back(st); });

  const Bytes payload = unique_payload(3, 0);
  cluster.loop.after(0.0, [&] {
    cli.submit(payload);
    cli.submit(payload);  // same bytes: must dedup, not double-commit
  });

  ASSERT_TRUE(cluster.run_until([&] { return cli.stats().committed >= 1; }));
  ASSERT_EQ(acks.size(), 2u);
  EXPECT_EQ(acks[0], net::TxStatus::Accepted);
  EXPECT_EQ(acks[1], net::TxStatus::Duplicate);
  EXPECT_EQ(cli.stats().committed, 1u);
  EXPECT_EQ(cluster.replicas[1].gateway->mempool().stats().dropped_duplicate, 1u);
}

TEST(ClientE2E, OversizeSubmissionRejectedTerminally) {
  Gateway::Options gopt;
  gopt.mempool.max_tx_bytes = 128;
  Cluster cluster(4, gopt);
  DlClient cli(cluster.loop, "127.0.0.1",
               cluster.replicas[0].gateway->listen_port());
  cli.start();

  net::TxStatus last{};
  cli.set_ack_callback([&](std::uint64_t, net::TxStatus st) { last = st; });
  cluster.loop.after(0.0, [&] { cli.submit(Bytes(256, 0xEE)); });
  ASSERT_TRUE(cluster.run_until([&] { return cli.stats().acked >= 1; }, 10.0));
  EXPECT_EQ(last, net::TxStatus::TooLarge);
  EXPECT_EQ(cli.stats().rejected, 1u);
  EXPECT_EQ(cli.stats().outstanding, 0u);
}

TEST(ClientE2E, GarbageOnClientPortIsDroppedNotFatal) {
  // A raw socket spraying garbage at the gateway must get disconnected
  // while a well-behaved client on the same gateway keeps committing.
  Cluster cluster(4);
  DlClient cli(cluster.loop, "127.0.0.1",
               cluster.replicas[0].gateway->listen_port());
  cli.start();

  const int raw = socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(raw, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(cluster.replicas[0].gateway->listen_port());
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ASSERT_EQ(::connect(raw, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);
  // A valid-looking header declaring a huge frame, then junk.
  const Bytes junk = random_bytes(512, 99);
  ASSERT_GT(send(raw, junk.data(), junk.size(), 0), 0);

  std::uint64_t submitted = 0;
  std::function<void()> feed = [&] {
    if (submitted < 20) {
      cli.submit(unique_payload(4, submitted++));
      cluster.loop.after(0.002, feed);
    }
  };
  cluster.loop.after(0.0, feed);
  ASSERT_TRUE(cluster.run_until([&] { return cli.stats().committed >= 20; }));
  close(raw);
  EXPECT_EQ(cli.stats().committed, 20u);
}

// Connection churn on one gateway: three clients commit, one leaves, and a
// fresh session joins, commits new payloads and resubmits two the departed
// client already committed. Every seq commits once for its submitter, the
// gateway and mempool totals are exact after shutdown, and node 0's ledger
// holds every payload exactly once — the resubmits are answered from the
// committed ring, never re-admitted.
TEST(ClientE2E, ConnectionChurnCommitsEveryPayloadOnce) {
  Cluster cluster(4);
  Replica& r0 = cluster.replicas[0];
  std::map<Hash, int> in_ledger;  // payload hash -> times node 0 delivered it
  r0.node->set_delivery_callback([&](std::uint64_t at, core::BlockKey key,
                                     const core::Block& b, double now) {
    r0.ledger.emplace_back(at, key);
    for (const core::Transaction& tx : b.txs) ++in_ledger[sha256(tx.payload)];
    r0.gateway->on_block_delivered(at, key, b, now);
  });
  const std::uint16_t port = r0.gateway->listen_port();

  constexpr int kClients = 3;
  constexpr std::uint64_t kPerClient = 20;
  constexpr std::uint64_t kFresh = 5;
  constexpr std::uint64_t kResubmits = 2;
  std::vector<std::unique_ptr<DlClient>> clients;
  std::vector<std::set<std::uint64_t>> committed(kClients + 1);
  std::uint64_t dup_commits = 0;
  auto add_client = [&](std::size_t c) {
    clients.push_back(
        std::make_unique<DlClient>(cluster.loop, "127.0.0.1", port));
    clients.back()->set_commit_callback(
        [&, c](std::uint64_t seq, std::uint64_t, std::uint32_t, double,
               const net::StageLatencies&) {
          if (!committed[c].insert(seq).second) ++dup_commits;
        });
    clients.back()->start();
  };
  for (std::size_t c = 0; c < kClients; ++c) add_client(c);

  std::vector<std::uint64_t> submitted(kClients, 0);
  std::function<void()> feed = [&] {
    for (std::size_t c = 0; c < kClients; ++c) {
      if (submitted[c] < kPerClient) {
        clients[c]->submit(unique_payload(c + 1, submitted[c]++));
      }
    }
    if (submitted[0] < kPerClient) cluster.loop.after(0.002, feed);
  };
  cluster.loop.after(0.0, feed);
  ASSERT_TRUE(cluster.run_until([&] {
    for (std::size_t c = 0; c < kClients; ++c) {
      if (committed[c].size() < kPerClient) return false;
    }
    return true;
  })) << "committed " << committed[0].size() << "/" << committed[1].size()
      << "/" << committed[2].size();

  // Churn: client 0 leaves; a new session (fresh nonce) joins.
  clients[0]->close();
  add_client(kClients);
  cluster.loop.after(0.0, [&] {
    for (std::uint64_t i = 0; i < kFresh; ++i) {
      clients.back()->submit(unique_payload(99, i));
    }
    for (std::uint64_t i = 0; i < kResubmits; ++i) {
      clients.back()->submit(unique_payload(1, i));
    }
  });
  ASSERT_TRUE(cluster.run_until(
      [&] { return committed[kClients].size() >= kFresh + kResubmits; }));
  // A few more epochs, so a wrongly re-admitted payload would have landed.
  const std::uint64_t settle = r0.node->stats().delivered_epochs + 3;
  ASSERT_TRUE(cluster.run_until(
      [&] { return r0.node->stats().delivered_epochs >= settle; }, 10.0));

  EXPECT_EQ(dup_commits, 0u);
  for (std::size_t c = 0; c < kClients; ++c) {
    EXPECT_EQ(committed[c].size(), kPerClient) << "client " << c;
  }
  EXPECT_EQ(committed[kClients].size(), kFresh + kResubmits);
  for (auto& c : clients) c->close();
  r0.gateway->shutdown();

  constexpr std::uint64_t kUnique = kClients * kPerClient + kFresh;
  constexpr std::uint64_t kSubmits = kUnique + kResubmits;
  const Gateway::Stats& gs = r0.gateway->stats();
  EXPECT_EQ(gs.submits, kSubmits);
  EXPECT_EQ(gs.commits_notified, kSubmits);
  EXPECT_EQ(gs.commits_clientless, 0u);
  const MempoolStats& ms = r0.gateway->mempool().stats();
  EXPECT_EQ(ms.admitted, kUnique);
  EXPECT_EQ(ms.committed, kUnique);
  EXPECT_EQ(ms.committed_replays, kResubmits);
  EXPECT_EQ(ms.dropped_duplicate, 0u);

  // Ledger-level exactly-once: only these payloads were ever submitted.
  EXPECT_EQ(in_ledger.size(), kUnique);
  for (const auto& [h, times] : in_ledger) EXPECT_EQ(times, 1);
  for (std::size_t c = 0; c < kClients; ++c) {
    for (std::uint64_t i = 0; i < kPerClient; ++i) {
      EXPECT_EQ(in_ledger.count(sha256(unique_payload(c + 1, i))), 1u);
    }
  }
  for (std::uint64_t i = 0; i < kFresh; ++i) {
    EXPECT_EQ(in_ledger.count(sha256(unique_payload(99, i))), 1u);
  }
}

TEST(ClientE2E, GatewayShutdownSendsGoodbye) {
  Cluster cluster(4);
  DlClient cli(cluster.loop, "127.0.0.1",
               cluster.replicas[3].gateway->listen_port());
  cli.start();

  cluster.loop.after(0.0, [&] { cli.submit(unique_payload(5, 0)); });
  ASSERT_TRUE(cluster.run_until([&] { return cli.stats().committed >= 1; }));

  // Graceful shutdown: the client must observe a Goodbye (remote_closed)
  // rather than a reconnect loop against a dead port.
  cluster.loop.post([&] { cluster.replicas[3].gateway->shutdown(); });
  ASSERT_TRUE(cluster.run_until([&] { return cli.remote_closed(); }, 10.0));
  EXPECT_FALSE(cli.connected());
}

}  // namespace
}  // namespace dl::client

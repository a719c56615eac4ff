// End-to-end integration tests of the full protocol stack on the network
// simulator: DispersedLedger, DL-Coupled, HoneyBadger, and HB-Link clusters.
//
// BFT properties checked (§2.1): Agreement + Total Order (every pair of
// correct nodes delivers prefix-consistent logs), Validity (submitted
// transactions are delivered everywhere), plus the DispersedLedger-specific
// behaviours: decoupled progress, inter-node linking, censorship resistance,
// BAD_UPLOADER consistency, and HoneyBadger's drop/re-propose behaviour.
#include <gtest/gtest.h>
#include <unistd.h>

#include <array>
#include <filesystem>
#include <map>
#include <memory>
#include <set>

#include "adversary/adversary.hpp"
#include "common/serial.hpp"
#include "dl/node.hpp"
#include "hb/hb_node.hpp"
#include "merkle/merkle_tree.hpp"
#include "runtime/sim_env.hpp"
#include "storage/ledger_store.hpp"
#include "vid/avid_m.hpp"

namespace dl::core {
namespace {

struct DeliveryRecord {
  std::uint64_t at_epoch;
  std::uint64_t block_epoch;
  int proposer;
  std::uint64_t payload;

  bool operator==(const DeliveryRecord&) const = default;
};

// A cluster harness: N nodes (some possibly crashed/Byzantine) on a uniform
// or custom network, with per-node delivery logs.
struct Cluster {
  sim::Simulator sim;
  std::vector<std::unique_ptr<sim::Host>> hosts;
  std::vector<std::unique_ptr<runtime::SimEnv>> envs;
  std::vector<std::unique_ptr<DlNode>> owned;
  std::vector<DlNode*> nodes;  // indexed by node id; nullptr when crashed
  std::vector<std::vector<DeliveryRecord>> logs;  // fixed size: stable ptrs

  explicit Cluster(sim::NetworkConfig net)
      : sim(net), nodes(static_cast<std::size_t>(net.n), nullptr),
        logs(static_cast<std::size_t>(net.n)) {}

  DlNode* add_node(NodeConfig cfg) {
    envs.push_back(std::make_unique<runtime::SimEnv>(sim, cfg.self));
    auto node = std::make_unique<DlNode>(cfg, *envs.back());
    envs.back()->attach(*node);
    DlNode* raw = node.get();
    auto* log = &logs[static_cast<std::size_t>(cfg.self)];
    raw->set_delivery_callback([log](std::uint64_t at, BlockKey key,
                                     const Block& b, double) {
      log->push_back({at, key.epoch, key.proposer, b.payload_bytes()});
    });
    nodes[static_cast<std::size_t>(cfg.self)] = raw;
    owned.push_back(std::move(node));
    return raw;
  }

  void add_crashed(int self) {
    hosts.push_back(std::make_unique<adversary::CrashNode>());
    sim.attach(self, hosts.back().get());
  }

  // Prefix-consistency of two delivery logs.
  static void expect_prefix_consistent(const std::vector<DeliveryRecord>& a,
                                       const std::vector<DeliveryRecord>& b) {
    const std::size_t m = std::min(a.size(), b.size());
    for (std::size_t i = 0; i < m; ++i) {
      ASSERT_EQ(a[i], b[i]) << "logs diverge at position " << i;
    }
  }

  void expect_all_logs_consistent() {
    const std::vector<DeliveryRecord>* first = nullptr;
    for (std::size_t i = 0; i < logs.size(); ++i) {
      if (nodes[i] == nullptr) continue;
      if (first == nullptr) {
        first = &logs[i];
        continue;
      }
      expect_prefix_consistent(*first, logs[i]);
    }
  }
};

NodeConfig with_small_blocks(NodeConfig c) {
  c.max_block_bytes = 60'000;
  c.propose_size = 30'000;
  return c;
}

struct ProtoParam {
  const char* name;
  NodeConfig (*make)(int, int, int);
};

class ProtocolP : public ::testing::TestWithParam<ProtoParam> {};

TEST_P(ProtocolP, AgreementTotalOrderUnderLoad) {
  const auto& param = GetParam();
  const int n = 4, f = 1;
  Cluster c(sim::NetworkConfig::uniform(n, 0.02, 2e6));
  for (int i = 0; i < n; ++i) c.add_node(with_small_blocks(param.make(n, f, i)));
  // Continuous load on every node.
  for (int i = 0; i < n; ++i) {
    for (int k = 0; k < 40; ++k) {
      const double t = 0.05 * k;
      DlNode* node = c.nodes[static_cast<std::size_t>(i)];
      c.sim.queue().at(t, [node, i, k] {
        node->submit(random_bytes(2000, static_cast<std::uint64_t>(i * 1000 + k)));
      });
    }
  }
  c.sim.run_until(30.0);
  // Everyone delivered something and the logs are prefix-consistent.
  for (int i = 0; i < n; ++i) {
    EXPECT_GT(c.logs[static_cast<std::size_t>(i)].size(), 10u) << param.name;
    EXPECT_GT(c.nodes[static_cast<std::size_t>(i)]->stats().delivered_payload_bytes, 0u);
  }
  c.expect_all_logs_consistent();
}

TEST_P(ProtocolP, ProgressWithFCrashedNodes) {
  const auto& param = GetParam();
  const int n = 7, f = 2;
  Cluster c(sim::NetworkConfig::uniform(n, 0.02, 2e6));
  for (int i = 0; i < n - f; ++i) c.add_node(with_small_blocks(param.make(n, f, i)));
  for (int i = n - f; i < n; ++i) c.add_crashed(i);
  for (int i = 0; i < n - f; ++i) {
    DlNode* node = c.nodes[static_cast<std::size_t>(i)];
    c.sim.queue().at(0.01, [node, i] {
      for (int k = 0; k < 10; ++k) {
        node->submit(random_bytes(1000, static_cast<std::uint64_t>(i * 100 + k)));
      }
    });
  }
  c.sim.run_until(30.0);
  for (int i = 0; i < n - f; ++i) {
    EXPECT_GT(c.logs[static_cast<std::size_t>(i)].size(), 0u) << param.name;
  }
  c.expect_all_logs_consistent();
}

INSTANTIATE_TEST_SUITE_P(
    AllProtocols, ProtocolP,
    ::testing::Values(ProtoParam{"DL", &NodeConfig::dispersed_ledger},
                      ProtoParam{"DLCoupled", &NodeConfig::dl_coupled},
                      ProtoParam{"HB", &NodeConfig::honey_badger},
                      ProtoParam{"HBLink", &NodeConfig::hb_link}),
    [](const auto& info) { return std::string(info.param.name); });

TEST(DlNode, ValidityEveryTxDeliveredEverywhere) {
  // Each node submits tagged transactions; every correct node must deliver
  // every one of them (DL's inter-node linking guarantees all correct
  // blocks are delivered — the paper's strengthened Validity).
  const int n = 4, f = 1;
  Cluster c(sim::NetworkConfig::uniform(n, 0.02, 2e6));
  std::vector<std::set<std::string>> delivered_tx(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    auto cfg = with_small_blocks(NodeConfig::dispersed_ledger(n, f, i));
    auto* node = c.add_node(cfg);
    auto* got = &delivered_tx[static_cast<std::size_t>(i)];
    node->set_delivery_callback([got](std::uint64_t, BlockKey, const Block& b, double) {
      for (const auto& tx : b.txs) got->insert(to_string(tx.payload));
    });
  }
  std::set<std::string> submitted;
  for (int i = 0; i < n; ++i) {
    for (int k = 0; k < 5; ++k) {
      const std::string tag = "tx-" + std::to_string(i) + "-" + std::to_string(k);
      submitted.insert(tag);
      DlNode* node = c.nodes[static_cast<std::size_t>(i)];
      c.sim.queue().at(0.1 * k, [node, tag] { node->submit(bytes_of(tag)); });
    }
  }
  c.sim.run_until(30.0);
  for (int i = 0; i < n; ++i) {
    for (const auto& tag : submitted) {
      EXPECT_TRUE(delivered_tx[static_cast<std::size_t>(i)].contains(tag))
          << "node " << i << " missing " << tag;
    }
  }
}

TEST(DlNode, DecoupledProgressUnderSpatialVariation) {
  // f+1 = 2 slow nodes (10x less bandwidth), so the (f+1)-th slowest node is
  // slow: HoneyBadger's epoch progress is gated by it at EVERY node, while
  // DispersedLedger lets the fast nodes confirm at their own pace. (With
  // only f slow nodes HB would simply leave them behind — the protocol only
  // waits for N-f nodes.)
  const int n = 4, f = 1;
  auto make_net = [] {
    sim::NetworkConfig net = sim::NetworkConfig::uniform(4, 0.02, 4e6);
    for (int i : {0, 1}) {
      net.egress[static_cast<std::size_t>(i)] = sim::Trace::constant(0.4e6);
      net.ingress[static_cast<std::size_t>(i)] = sim::Trace::constant(0.4e6);
    }
    return net;
  };

  auto run = [&](NodeConfig (*make)(int, int, int)) {
    Cluster c(make_net());
    for (int i = 0; i < n; ++i) {
      auto cfg = make(n, f, i);
      cfg.max_block_bytes = 120'000;
      cfg.backlog_tx_bytes = 250;  // infinite backlog
      c.add_node(cfg);
    }
    c.sim.run_until(30.0);
    std::vector<std::uint64_t> confirmed;
    for (auto* node : c.nodes) confirmed.push_back(node->stats().delivered_payload_bytes);
    c.expect_all_logs_consistent();
    return confirmed;
  };

  const auto dl = run(&NodeConfig::dispersed_ledger);
  const auto hb = run(&NodeConfig::honey_badger);

  // DL: a fast node confirms much more than a slow node.
  EXPECT_GT(dl[2], 2 * dl[0]);
  // HB: fast nodes are dragged down to (roughly) the straggler's pace —
  // all correct nodes deliver the same epochs, differing only by lag.
  EXPECT_LT(hb[2], 2 * hb[0] + 1'000'000);
  // And DL's fast nodes beat HB's fast nodes outright.
  EXPECT_GT(dl[2], hb[2]);
}

TEST(DlNode, InterNodeLinkingDeliversUncommittedBlocks) {
  // With a slow proposer, some of its dispersed blocks miss their epoch's
  // BA. Linking must deliver them later (delivered_linked_blocks > 0) and
  // identically at all nodes.
  const int n = 4, f = 1;
  sim::NetworkConfig net = sim::NetworkConfig::uniform(n, 0.02, 2e6);
  net.egress[3] = sim::Trace::constant(0.3e6);
  net.ingress[3] = sim::Trace::constant(0.3e6);
  Cluster c(net);
  for (int i = 0; i < n; ++i) {
    auto cfg = NodeConfig::dispersed_ledger(n, f, i);
    cfg.max_block_bytes = 100'000;
    cfg.backlog_tx_bytes = 250;
    c.add_node(cfg);
  }
  c.sim.run_until(40.0);
  std::uint64_t linked = 0;
  for (auto* node : c.nodes) linked += node->stats().delivered_linked_blocks;
  EXPECT_GT(linked, 0u);
  c.expect_all_logs_consistent();
}

TEST(DlNode, HoneyBadgerDropsAndReproposes) {
  // Plain HB: the slow node's blocks get dropped (BA outputs 0) and their
  // transactions are re-proposed; with linking they would not be.
  const int n = 4, f = 1;
  sim::NetworkConfig net = sim::NetworkConfig::uniform(n, 0.02, 2e6);
  net.egress[3] = sim::Trace::constant(0.2e6);
  net.ingress[3] = sim::Trace::constant(0.2e6);
  Cluster c(net);
  for (int i = 0; i < n; ++i) {
    auto cfg = NodeConfig::honey_badger(n, f, i);
    cfg.max_block_bytes = 100'000;
    cfg.backlog_tx_bytes = 250;
    c.add_node(cfg);
  }
  c.sim.run_until(40.0);
  std::uint64_t dropped = 0;
  for (auto* node : c.nodes) dropped += node->stats().own_blocks_dropped;
  EXPECT_GT(dropped, 0u);
  EXPECT_GT(c.nodes[3]->stats().reproposed_tx, 0u);
  c.expect_all_logs_consistent();
}

TEST(DlNode, BadDisperserYieldsConsistentBadBlocks) {
  // A Byzantine proposer dispersing inconsistent encodings: all correct
  // nodes must agree on the BAD_UPLOADER outcome and keep making progress.
  const int n = 4, f = 1;
  Cluster c(sim::NetworkConfig::uniform(n, 0.02, 2e6));
  for (int i = 0; i < 3; ++i) {
    auto cfg = with_small_blocks(NodeConfig::dispersed_ledger(n, f, i));
    cfg.backlog_tx_bytes = 250;
    cfg.max_block_bytes = 50'000;
    c.add_node(cfg);
  }
  c.add_node(with_small_blocks(adversary::bad_disperser_config(n, f, 3)));
  c.sim.run_until(30.0);
  for (int i = 0; i < 3; ++i) {
    EXPECT_GT(c.nodes[static_cast<std::size_t>(i)]->stats().delivered_payload_bytes, 0u);
    EXPECT_GT(c.nodes[static_cast<std::size_t>(i)]->stats().bad_uploader_blocks, 0u);
  }
  c.expect_all_logs_consistent();
}

TEST(DlNode, VLiarCannotStallLinking) {
  // A proposer reporting inflated V arrays: the (f+1)-th-largest rule must
  // clip its lies; the system keeps delivering and logs stay consistent.
  const int n = 4, f = 1;
  Cluster c(sim::NetworkConfig::uniform(n, 0.02, 2e6));
  for (int i = 0; i < 3; ++i) {
    auto cfg = with_small_blocks(NodeConfig::dispersed_ledger(n, f, i));
    cfg.backlog_tx_bytes = 250;
    cfg.max_block_bytes = 50'000;
    c.add_node(cfg);
  }
  c.add_node(with_small_blocks(adversary::v_liar_config(n, f, 3)));
  c.sim.run_until(30.0);
  for (int i = 0; i < 3; ++i) {
    EXPECT_GT(c.logs[static_cast<std::size_t>(i)].size(), 10u);
  }
  c.expect_all_logs_consistent();
}

TEST(DlNode, DlCoupledProposesEmptyWhenBehind) {
  // DL-Coupled on a slow node: when retrieval lags, the node participates
  // with empty blocks (spam defense of §4.5).
  const int n = 4, f = 1;
  sim::NetworkConfig net = sim::NetworkConfig::uniform(n, 0.02, 3e6);
  net.egress[0] = sim::Trace::constant(0.25e6);
  net.ingress[0] = sim::Trace::constant(0.25e6);
  Cluster c(net);
  for (int i = 0; i < n; ++i) {
    auto cfg = NodeConfig::dl_coupled(n, f, i);
    cfg.max_block_bytes = 100'000;
    cfg.backlog_tx_bytes = 250;
    c.add_node(cfg);
  }
  c.sim.run_until(40.0);
  EXPECT_GT(c.nodes[0]->stats().proposed_empty_blocks, 0u);
  c.expect_all_logs_consistent();
}

TEST(DlNode, FallBehindStopThrottlesProposals) {
  const int n = 4, f = 1;
  sim::NetworkConfig net = sim::NetworkConfig::uniform(n, 0.02, 3e6);
  net.egress[0] = sim::Trace::constant(0.25e6);
  net.ingress[0] = sim::Trace::constant(0.25e6);
  Cluster c(net);
  for (int i = 0; i < n; ++i) {
    auto cfg = NodeConfig::dispersed_ledger(n, f, i);
    cfg.max_block_bytes = 100'000;
    cfg.backlog_tx_bytes = 250;
    cfg.fall_behind_stop = (i == 0) ? 3 : 0;  // P=3 for the slow node
    c.add_node(cfg);
  }
  c.sim.run_until(40.0);
  // The slow node must not have dispersed more than P epochs past its
  // delivery frontier (+1: the gate is checked before each proposal).
  const auto& s = c.nodes[0]->stats();
  EXPECT_LE(s.current_dispersal_epoch, c.nodes[0]->next_epoch_to_deliver() + 4);
  c.expect_all_logs_consistent();
}

TEST(DlNode, EpochsAdvanceWithoutRetrievalInDL) {
  // The core decoupling claim: a DL node participates in dispersal for
  // epochs far beyond what it has retrieved.
  const int n = 4, f = 1;
  sim::NetworkConfig net = sim::NetworkConfig::uniform(n, 0.02, 3e6);
  net.egress[0] = sim::Trace::constant(0.3e6);
  net.ingress[0] = sim::Trace::constant(0.3e6);
  Cluster c(net);
  for (int i = 0; i < n; ++i) {
    auto cfg = NodeConfig::dispersed_ledger(n, f, i);
    cfg.max_block_bytes = 150'000;
    cfg.backlog_tx_bytes = 250;
    c.add_node(cfg);
  }
  c.sim.run_until(30.0);
  const auto& slow = c.nodes[0]->stats();
  EXPECT_GT(slow.current_dispersal_epoch, c.nodes[0]->next_epoch_to_deliver() + 2);
}

TEST(DlNode, FingerprintsMatchAtEqualBlockCounts) {
  const int n = 4, f = 1;
  Cluster c(sim::NetworkConfig::uniform(n, 0.02, 2e6));
  for (int i = 0; i < n; ++i) {
    auto cfg = with_small_blocks(NodeConfig::dispersed_ledger(n, f, i));
    cfg.backlog_tx_bytes = 250;
    cfg.max_block_bytes = 40'000;
    c.add_node(cfg);
  }
  c.sim.run_until(20.0);
  // If two nodes delivered the same number of blocks, their delivery-chain
  // fingerprints must be identical.
  for (int i = 1; i < n; ++i) {
    if (c.nodes[0]->stats().delivered_blocks ==
        c.nodes[static_cast<std::size_t>(i)]->stats().delivered_blocks) {
      EXPECT_EQ(c.nodes[0]->delivery_fingerprint(),
                c.nodes[static_cast<std::size_t>(i)]->delivery_fingerprint());
    }
  }
  c.expect_all_logs_consistent();
}

TEST(DlNode, NoLoadStillLive) {
  // Zero transactions: epochs tick with empty blocks, nothing crashes, and
  // no payload is "confirmed".
  const int n = 4, f = 1;
  Cluster c(sim::NetworkConfig::uniform(n, 0.02, 1e6));
  for (int i = 0; i < n; ++i) c.add_node(NodeConfig::dispersed_ledger(n, f, i));
  c.sim.run_until(5.0);
  for (auto* node : c.nodes) {
    EXPECT_GT(node->stats().delivered_epochs, 0u);
    EXPECT_EQ(node->stats().delivered_payload_bytes, 0u);
  }
  c.expect_all_logs_consistent();
}

TEST(DlNode, GarbageMessagesIgnored) {
  const int n = 4, f = 1;
  Cluster c(sim::NetworkConfig::uniform(n, 0.02, 2e6));
  for (int i = 0; i < n; ++i) c.add_node(with_small_blocks(NodeConfig::dispersed_ledger(n, f, i)));
  // Inject garbage directly into node 0 at various times.
  for (int k = 0; k < 20; ++k) {
    c.sim.queue().at(0.1 * k, [&c, k] {
      sim::Message m;
      m.from = 3;
      m.to = 0;
      m.payload = std::make_shared<Bytes>(random_bytes(64, static_cast<std::uint64_t>(k)));
      c.sim.network().send(std::move(m));
    });
  }
  c.nodes[0]->submit(bytes_of("real-tx"));
  c.sim.run_until(10.0);
  EXPECT_GT(c.nodes[1]->stats().delivered_payload_bytes, 0u);
  c.expect_all_logs_consistent();
}

TEST(DlNode, AbsurdEpochMessageBounded) {
  // A message naming an absurd epoch must not blow up memory or crash.
  const int n = 4, f = 1;
  Cluster c(sim::NetworkConfig::uniform(n, 0.02, 2e6));
  for (int i = 0; i < n; ++i) c.add_node(NodeConfig::dispersed_ledger(n, f, i));
  c.sim.queue().at(0.5, [&c] {
    Envelope env;
    env.kind = MsgKind::BaBval;
    env.epoch = 1'000'000'000;
    env.instance = 0;
    env.body = ba::BaRoundMsg{0, true}.encode();
    sim::Message m;
    m.from = 3;
    m.to = 0;
    m.payload = std::make_shared<Bytes>(env.encode());
    c.sim.network().send(std::move(m));
  });
  c.sim.run_until(5.0);
  for (auto* node : c.nodes) EXPECT_GT(node->stats().delivered_epochs, 0u);
}

// --- epoch retirement -------------------------------------------------------

// A 4-node backlog cluster. Node 3's link drops to a tenth of the others'
// rate for 2 s out of every 10, so some of its blocks miss their epoch's BA
// and are delivered later by linking, yet it catches up in between; with
// `crash_last` node 3 is crashed instead. `max_live` records, over every
// running node and every sampled instant, the most epochs holding state.
struct RetireRun {
  Cluster c;
  std::size_t max_live = 0;

  RetireRun(bool crash_last, double seconds)
      : c([] {
          sim::NetworkConfig net = sim::NetworkConfig::uniform(4, 0.02, 2e6);
          std::vector<double> rates;
          for (int k = 0; k < 200; ++k) rates.push_back(k % 10 < 2 ? 0.2e6 : 2e6);
          net.egress[3] = sim::Trace(rates, 1.0);
          net.ingress[3] = sim::Trace(rates, 1.0);
          return net;
        }()) {
    const int n = 4, f = 1;
    for (int i = 0; i < n; ++i) {
      if (crash_last && i == n - 1) {
        c.add_crashed(i);
        continue;
      }
      auto cfg = NodeConfig::dispersed_ledger(n, f, i);
      cfg.max_block_bytes = 20'000;
      cfg.backlog_tx_bytes = 250;
      c.add_node(cfg);
    }
    for (double t = 0.5; t < seconds; t += 0.5) {
      c.sim.queue().at(t, [this] {
        for (DlNode* node : c.nodes) {
          if (node != nullptr) max_live = std::max(max_live, node->live_epochs());
        }
      });
    }
    c.sim.run_until(seconds);
  }
};

TEST(DlNodeRetire, LongHonestRunKeepsLiveEpochsBounded) {
  RetireRun r(/*crash_last=*/false, 80.0);
  std::uint64_t linked = 0;
  for (DlNode* node : r.c.nodes) {
    linked += node->stats().delivered_linked_blocks;
    // The run outlasts the horizon, yet the floor trails delivery by only
    // a few epochs: they retired because they settled.
    EXPECT_GT(node->stats().delivered_epochs, DlNode::kRetireHorizon);
    EXPECT_GE(node->retired_floor() + 16, node->next_epoch_to_deliver());
  }
  EXPECT_GT(linked, 0u);
  EXPECT_LE(r.max_live, 16u);
  r.c.expect_all_logs_consistent();
}

TEST(DlNodeRetire, CrashedPeerBoundsLiveEpochsByTheHorizon) {
  // The crashed node never asks for a chunk, so no epoch ever settles:
  // only the horizon retires them.
  RetireRun r(/*crash_last=*/true, 120.0);
  for (int i = 0; i < 3; ++i) {
    const DlNode* node = r.c.nodes[static_cast<std::size_t>(i)];
    const std::uint64_t next = node->next_epoch_to_deliver();
    ASSERT_GT(next, DlNode::kRetireHorizon + 32);
    EXPECT_EQ(node->retired_floor(), next - DlNode::kRetireHorizon);
  }
  // The horizon plus the few epochs in flight above deliver_next.
  EXPECT_LE(r.max_live, DlNode::kRetireHorizon + 8);
  EXPECT_GE(r.max_live, DlNode::kRetireHorizon);
  r.c.expect_all_logs_consistent();
}

TEST(DlNodeRetire, LateMessagesForRetiredEpochsAreCountedAndDropped) {
  RetireRun r(/*crash_last=*/false, 20.0);
  DlNode* node = r.c.nodes[0];
  const std::uint64_t floor = node->retired_floor();
  ASSERT_GT(floor, 2u);
  const std::size_t live = node->live_epochs();
  const NodeStats before = node->stats();

  auto inject = [&](MsgKind kind, std::uint64_t epoch, Bytes body) {
    Envelope env;
    env.kind = kind;
    env.epoch = epoch;
    env.instance = 1;
    env.body = std::move(body);
    node->on_receive(2, env.encode());
  };
  for (std::uint64_t e : {floor - 1, std::uint64_t{0}}) {
    inject(MsgKind::BaBval, e, ba::BaRoundMsg{0, true}.encode());
    inject(MsgKind::VidReady, e, vid::RootMsg{Hash{}}.encode());
  }
  EXPECT_EQ(node->live_epochs(), live);
  EXPECT_EQ(node->retired_floor(), floor);
  EXPECT_EQ(node->stats().ba_msgs_received, before.ba_msgs_received + 2);
  EXPECT_EQ(node->stats().ba_msgs_sent, before.ba_msgs_sent);
}

// --- durable store: recovery replay and VID-coded catch-up ------------------

struct StoreDirs {
  std::string root;
  StoreDirs() {
    char tmpl[] = "/tmp/dl_catchup_test.XXXXXX";
    root = mkdtemp(tmpl);
  }
  ~StoreDirs() { std::filesystem::remove_all(root); }
  std::string node_dir(int i) const { return root + "/n" + std::to_string(i); }
};

NodeConfig with_catch_up(NodeConfig c) {
  c = with_small_blocks(c);
  c.catch_up_interval = 0.2;
  return c;
}

std::unique_ptr<storage::LedgerStore> open_store(const std::string& dir) {
  std::string err;
  auto store = storage::LedgerStore::open(dir, {}, &err);
  EXPECT_NE(store, nullptr) << err;
  return store;
}

TEST(DlNodeStore, RecoveryReplaysFingerprintAndStats) {
  // Phase 1: a live cluster commits a prefix into per-node stores.
  const int n = 4, f = 1;
  StoreDirs dirs;
  Hash fp;
  NodeStats live{};
  {
    std::vector<std::unique_ptr<storage::LedgerStore>> stores;
    Cluster c(sim::NetworkConfig::uniform(n, 0.02, 2e6));
    for (int i = 0; i < n; ++i) {
      DlNode* node = c.add_node(
          with_small_blocks(NodeConfig::dispersed_ledger(n, f, i)));
      stores.push_back(open_store(dirs.node_dir(i)));
      ASSERT_NE(stores.back(), nullptr);
      node->attach_store(stores.back().get());
    }
    for (int i = 0; i < n; ++i) {
      for (int k = 0; k < 30; ++k) {
        DlNode* node = c.nodes[static_cast<std::size_t>(i)];
        c.sim.queue().at(0.05 * k, [node, i, k] {
          node->submit(
              random_bytes(2000, static_cast<std::uint64_t>(i * 1000 + k)));
        });
      }
    }
    c.sim.run_until(10.0);
    ASSERT_GT(c.nodes[1]->stats().delivered_epochs, 5u);
    fp = c.nodes[1]->delivery_fingerprint();
    live = c.nodes[1]->stats();
    EXPECT_EQ(stores[1]->delivered_frontier(), live.delivered_epochs);
  }
  // Phase 2: a cold restart of node 1. attach_store alone — before any
  // message or timer — must rebuild the delivery state the live run had:
  // the fingerprint chain is hashed over the recovered bytes, so equality
  // proves the store returned every delivered block byte-identically and
  // in delivery order.
  auto store = open_store(dirs.node_dir(1));
  ASSERT_NE(store, nullptr);
  sim::Simulator sim2(sim::NetworkConfig::uniform(n, 0.02, 2e6));
  runtime::SimEnv env2(sim2, 1);
  DlNode node(with_small_blocks(NodeConfig::dispersed_ledger(n, f, 1)), env2);
  node.attach_store(store.get());
  EXPECT_EQ(node.delivery_fingerprint(), fp);
  EXPECT_EQ(node.stats().delivered_epochs, live.delivered_epochs);
  EXPECT_EQ(node.stats().recovered_epochs, live.delivered_epochs);
  EXPECT_EQ(node.stats().delivered_blocks, live.delivered_blocks);
  EXPECT_EQ(node.stats().delivered_linked_blocks, live.delivered_linked_blocks);
  EXPECT_EQ(node.stats().delivered_payload_bytes, live.delivered_payload_bytes);
  EXPECT_EQ(node.stats().delivered_tx_count, live.delivered_tx_count);
}

TEST(DlNodeStore, LateJoinerCatchesUpViaCodedChunks) {
  // Nodes 0..2 run (and persist) from t=0; node 3 is dark until t=8, then
  // joins with an EMPTY store. It must discover the committed frontier,
  // pull coded chunks from f+1-agreeing peers for every missed epoch,
  // install them in delivery order, and then keep up LIVE through BA.
  const int n = 4, f = 1;
  StoreDirs dirs;
  std::vector<std::unique_ptr<storage::LedgerStore>> stores(4);
  Cluster c(sim::NetworkConfig::uniform(n, 0.02, 2e6));
  for (int i = 0; i < 3; ++i) {
    DlNode* node =
        c.add_node(with_catch_up(NodeConfig::dispersed_ledger(n, f, i)));
    stores[static_cast<std::size_t>(i)] = open_store(dirs.node_dir(i));
    ASSERT_NE(stores[static_cast<std::size_t>(i)], nullptr);
    node->attach_store(stores[static_cast<std::size_t>(i)].get());
  }
  c.add_crashed(3);
  // Load on the live nodes until t=20 (the run ends at t=30, so the joiner
  // also sees a stretch of live traffic after it has caught up).
  for (int i = 0; i < 3; ++i) {
    for (int k = 0; k < 80; ++k) {
      DlNode* node = c.nodes[static_cast<std::size_t>(i)];
      c.sim.queue().at(0.25 * k, [node, i, k] {
        node->submit(
            random_bytes(2000, static_cast<std::uint64_t>(i * 1000 + k)));
      });
    }
  }
  c.sim.queue().at(8.0, [&] {
    DlNode* node =
        c.add_node(with_catch_up(NodeConfig::dispersed_ledger(n, f, 3)));
    stores[3] = open_store(dirs.node_dir(3));
    if (stores[3] == nullptr) return;
    node->attach_store(stores[3].get());
    c.envs.back()->start();  // mid-run attach: fire start() ourselves
  });
  c.sim.run_until(30.0);

  DlNode* joiner = c.nodes[3];
  ASSERT_NE(joiner, nullptr);
  const NodeStats& js = joiner->stats();
  EXPECT_EQ(js.recovered_epochs, 0u);  // store was empty
  EXPECT_GT(js.catch_up_rounds, 0u);
  EXPECT_GT(js.caught_up_epochs, 0u);
  EXPECT_GT(js.caught_up_blocks, 0u);
  // Caught up to (within a breath of) the live frontier...
  EXPECT_GE(js.delivered_epochs + 8, c.nodes[0]->stats().delivered_epochs);
  // ...and delivered epochs through live BA beyond what catch-up installed.
  EXPECT_GT(js.delivered_epochs, js.caught_up_epochs);
  // Full-history agreement: the joiner reconstructed the ledger from epoch
  // 0, so its whole delivery log must match a node that lived through it.
  ASSERT_GT(c.logs[3].size(), 10u);
  Cluster::expect_prefix_consistent(c.logs[0], c.logs[3]);
  // Everything it pulled is in its own store, ready to serve others.
  EXPECT_EQ(stores[3]->delivered_frontier(), js.delivered_epochs);
}

TEST(DlNodeStore, ReplicaDarkPastTheHorizonCatchesUpFromStores) {
  // Nodes 0..2 persist from t=0; node 3 stays dark until they have retired
  // epochs by the horizon (it never asked for their chunks, so live
  // retrieval of that history is gone). It then joins with an empty store
  // and must rebuild the identical ledger through coded catch-up. Once the
  // horizon passes the epochs it installed that way, every epoch settles
  // again and the retired floor closes up to delivery.
  const int n = 4, f = 1;
  StoreDirs dirs;
  std::vector<std::unique_ptr<storage::LedgerStore>> stores(4);
  Cluster c(sim::NetworkConfig::uniform(n, 0.02, 2e6));
  for (int i = 0; i < 3; ++i) {
    DlNode* node =
        c.add_node(with_catch_up(NodeConfig::dispersed_ledger(n, f, i)));
    stores[static_cast<std::size_t>(i)] = open_store(dirs.node_dir(i));
    ASSERT_NE(stores[static_cast<std::size_t>(i)], nullptr);
    node->attach_store(stores[static_cast<std::size_t>(i)].get());
  }
  c.add_crashed(3);
  for (int i = 0; i < 3; ++i) {
    for (int k = 0; k < 160; ++k) {
      DlNode* node = c.nodes[static_cast<std::size_t>(i)];
      c.sim.queue().at(0.5 * k, [node, i, k] {
        node->submit(
            random_bytes(1000, static_cast<std::uint64_t>(i * 1000 + k)));
      });
    }
  }
  std::uint64_t floor_at_join = 0;
  c.sim.queue().at(80.0, [&] {
    floor_at_join = c.nodes[0]->retired_floor();
    DlNode* node =
        c.add_node(with_catch_up(NodeConfig::dispersed_ledger(n, f, 3)));
    stores[3] = open_store(dirs.node_dir(3));
    if (stores[3] == nullptr) return;
    node->attach_store(stores[3].get());
    c.envs.back()->start();  // mid-run attach: fire start() ourselves
  });
  c.sim.run_until(150.0);

  ASSERT_GT(floor_at_join, 0u);
  DlNode* joiner = c.nodes[3];
  ASSERT_NE(joiner, nullptr);
  const NodeStats& js = joiner->stats();
  EXPECT_GT(js.caught_up_epochs, floor_at_join);
  EXPECT_GE(js.delivered_epochs + 8, c.nodes[0]->stats().delivered_epochs);
  ASSERT_GT(c.logs[3].size(), c.logs[0].size() / 2);
  Cluster::expect_prefix_consistent(c.logs[0], c.logs[3]);
  c.expect_all_logs_consistent();
  for (const DlNode* node : c.nodes) EXPECT_LE(node->live_epochs(), 16u);
}

TEST(DlNodeStore, JoinerPastTheHorizonUnderLoadDoesNotStallThePeers) {
  // Nodes 0..2 persist and run a full backlog from t=0; node 3 joins with an
  // empty store more than the retire horizon behind them, so coded catch-up
  // is its only way back. A catch-up round that is still being served or
  // installed must not be restarted by the probe: every restart makes each
  // store-backed peer serve a whole window of Low-class history again, ahead
  // of its live ReturnChunks, which starved the peers' own delivery. The
  // peers keep delivering throughout and the joiner reaches their frontier.
  const int n = 4, f = 1;
  StoreDirs dirs;
  std::vector<std::unique_ptr<storage::LedgerStore>> stores(4);
  Cluster c(sim::NetworkConfig::uniform(n, 0.02, 2e6));
  auto cfg_for = [&](int i) {
    NodeConfig cfg = with_catch_up(NodeConfig::dispersed_ledger(n, f, i));
    cfg.backlog_tx_bytes = 250;
    cfg.max_block_bytes = 20'000;
    return cfg;
  };
  for (int i = 0; i < 3; ++i) {
    DlNode* node = c.add_node(cfg_for(i));
    stores[static_cast<std::size_t>(i)] = open_store(dirs.node_dir(i));
    ASSERT_NE(stores[static_cast<std::size_t>(i)], nullptr);
    node->attach_store(stores[static_cast<std::size_t>(i)].get());
  }
  c.add_crashed(3);
  const double join_at = 80.0;
  std::uint64_t frontier_at_join = 0;
  c.sim.queue().at(join_at, [&] {
    frontier_at_join = c.nodes[0]->stats().delivered_epochs;
    DlNode* node = c.add_node(cfg_for(3));
    stores[3] = open_store(dirs.node_dir(3));
    if (stores[3] == nullptr) return;
    node->attach_store(stores[3].get());
    c.envs.back()->start();  // mid-run attach: fire start() ourselves
  });
  // Each peer's progress over every 5 s stretch after the join.
  std::vector<std::array<std::uint64_t, 3>> progress;
  for (int k = 0; k <= 8; ++k) {
    c.sim.queue().at(join_at + 5.0 * k, [&] {
      std::array<std::uint64_t, 3> at{};
      for (int i = 0; i < 3; ++i) {
        at[static_cast<std::size_t>(i)] =
            c.nodes[static_cast<std::size_t>(i)]->stats().delivered_epochs;
      }
      progress.push_back(at);
    });
  }
  c.sim.run_until(join_at + 40.0);

  ASSERT_GT(frontier_at_join, DlNode::kRetireHorizon);
  ASSERT_EQ(progress.size(), 9u);
  for (std::size_t k = 1; k < progress.size(); ++k) {
    for (std::size_t i = 0; i < 3; ++i) {
      EXPECT_GT(progress[k][i], progress[k - 1][i] + 5)
          << "node " << i << " stalled in stretch " << k;
    }
  }
  DlNode* joiner = c.nodes[3];
  ASSERT_NE(joiner, nullptr);
  const NodeStats& js = joiner->stats();
  EXPECT_GT(js.caught_up_epochs, frontier_at_join);
  EXPECT_GE(js.delivered_epochs + 8, c.nodes[0]->stats().delivered_epochs);
  // A handful of rounds covers the gap (the window is 64 epochs); the storm
  // started one per probe tick.
  EXPECT_LT(js.catch_up_rounds, 40u);
  Cluster::expect_prefix_consistent(c.logs[0], c.logs[3]);
  c.expect_all_logs_consistent();
}

// --- one delivery funnel: live, catch-up and replay commit alike -----------

// A Byzantine disperser's Env: forwards everything to the node's SimEnv but
// swaps the node's own VidChunk dispersal at chosen epochs, so the honest
// replicas commit exactly the bytes (or the inconsistent chunk set) a test
// picks for that slot.
class DispersalRewriter final : public runtime::Env {
 public:
  DispersalRewriter(runtime::SimEnv& inner, vid::Params p)
      : inner_(inner), p_(p) {}

  // Disperse `content` as a valid codeword in place of the epoch-e block.
  void replace(std::uint64_t e, ByteView content) {
    chunks_[e] = vid::avid_m_disperse(p_, content);
  }
  // Disperse chunks with valid proofs under one root that are not a
  // codeword: every correct retriever decodes BAD_UPLOADER.
  void make_inconsistent(std::uint64_t e) {
    std::vector<Bytes> garbage;
    for (int i = 0; i < p_.n; ++i) {
      garbage.push_back(random_bytes(256, 0xBAD0 + static_cast<std::uint64_t>(i)));
    }
    const MerkleTree tree(garbage);
    auto& out = chunks_[e];
    for (int i = 0; i < p_.n; ++i) {
      out.push_back({tree.root(), garbage[static_cast<std::size_t>(i)],
                     tree.prove(static_cast<std::uint32_t>(i))});
    }
  }

  int local_id() const override { return inner_.local_id(); }
  int cluster_size() const override { return inner_.cluster_size(); }
  double now() const override { return inner_.now(); }
  runtime::TimerId at(double t, std::function<void()> fn) override {
    return inner_.at(t, std::move(fn));
  }
  runtime::TimerId after(double d, std::function<void()> fn) override {
    return inner_.after(d, std::move(fn));
  }
  bool cancel_timer(runtime::TimerId id) override {
    return inner_.cancel_timer(id);
  }
  void send(int to, const Envelope& env,
            const runtime::SendOpts& opts) override {
    auto it = chunks_.find(env.epoch);
    if (env.kind != MsgKind::VidChunk || it == chunks_.end()) {
      inner_.send(to, env, opts);
      return;
    }
    Envelope swapped = env;
    swapped.body = it->second[static_cast<std::size_t>(to)].encode();
    inner_.send(to, swapped, opts);
  }
  void broadcast(const Envelope& env, const runtime::SendOpts& opts) override {
    inner_.broadcast(env, opts);
  }
  void cancel_send(std::uint64_t tag) override { inner_.cancel_send(tag); }
  void defer(std::function<void()> fn) override { inner_.defer(std::move(fn)); }
  void offload(std::function<void()> work, std::function<void()> done) override {
    inner_.offload(std::move(work), std::move(done));
  }

 private:
  runtime::SimEnv& inner_;
  vid::Params p_;
  std::map<std::uint64_t, std::vector<vid::ChunkMsg>> chunks_;
};

// What one committed block looks like from outside the node: the ledger
// line (at_epoch, key, sha256 of the decoded block), the tx hashes a
// gateway would seed, and the node's fingerprint and cumulative delivery
// stats right after it.
struct CommitLine {
  std::uint64_t at_epoch = 0;
  std::uint64_t block_epoch = 0;
  int proposer = 0;
  Hash block_hash;
  Hash tx_hashes;
  Hash fingerprint;
  std::uint64_t blocks = 0, linked = 0, payload = 0, txs = 0, bad = 0;

  bool operator==(const CommitLine&) const = default;
};

struct CommitLog {
  std::vector<CommitLine> lines;
  std::vector<bool> caught_up;  // per line: committed by coded catch-up
  std::uint64_t caught_up_before = 0;

  // Usable both as the delivery callback and as the replay visitor.
  DlNode::DeliveryFn recorder(const DlNode* node) {
    return [this, node](std::uint64_t at, BlockKey key, const Block& b,
                        double) {
      Writer seeds;
      for (const Transaction& tx : b.txs) seeds.raw(sha256(tx.payload).view());
      const NodeStats& s = node->stats();
      lines.push_back({at, key.epoch, key.proposer, sha256(b.encode()),
                       sha256(seeds.data()), node->delivery_fingerprint(),
                       s.delivered_blocks, s.delivered_linked_blocks,
                       s.delivered_payload_bytes, s.delivered_tx_count,
                       s.bad_uploader_blocks});
      caught_up.push_back(s.caught_up_blocks > caught_up_before);
      caught_up_before = s.caught_up_blocks;
    };
  }

  std::size_t index_of(std::uint64_t block_epoch, int proposer) const {
    for (std::size_t i = 0; i < lines.size(); ++i) {
      if (lines[i].block_epoch == block_epoch && lines[i].proposer == proposer) {
        return i;
      }
    }
    return lines.size();
  }
};

void expect_same_prefix(const CommitLog& a, const CommitLog& b,
                        const char* what) {
  const std::size_t m = std::min(a.lines.size(), b.lines.size());
  for (std::size_t i = 0; i < m; ++i) {
    ASSERT_EQ(a.lines[i], b.lines[i]) << what << ": diverge at line " << i;
  }
}

TEST(DlNodeStore, LedgerDigestIsTheDigestOfTheCanonicalEncoding) {
  // ledger_digest() names sha256(decode_or_poison(content).encode()) for
  // every committed block: valid blocks (whose content digest it reuses),
  // a block without a V array, the literal sentinel bytes, bytes that do not
  // decode, and an inconsistent chunk set (BAD_UPLOADER) — live, and again
  // when the store is replayed.
  const int n = 4, f = 1;
  const std::uint64_t kEmptyV = 2, kSentinel = 3, kUndecodable = 4,
                      kInconsistent = 5;
  StoreDirs dirs;
  struct Seen {
    BlockKey key;
    Hash digest;
    Hash canonical;
  };
  auto recorder = [](std::vector<Seen>* seen, const DlNode* node) {
    return [seen, node](std::uint64_t, BlockKey key, const Block& b, double) {
      seen->push_back({key, node->ledger_digest(), sha256(b.encode())});
    };
  };
  std::vector<Seen> live;
  {
    Cluster c(sim::NetworkConfig::uniform(n, 0.02, 2e6));
    std::unique_ptr<storage::LedgerStore> store;
    for (int i = 0; i < 3; ++i) {
      DlNode* node = c.add_node(
          with_small_blocks(NodeConfig::dispersed_ledger(n, f, i)));
      if (i != 0) continue;
      node->set_delivery_callback(recorder(&live, node));
      store = open_store(dirs.node_dir(0));
      ASSERT_NE(store, nullptr);
      node->attach_store(store.get());
    }
    c.envs.push_back(std::make_unique<runtime::SimEnv>(c.sim, 3));
    DispersalRewriter byz(*c.envs.back(), vid::Params{n, f});
    Block empty_v;
    empty_v.txs.push_back({1.5, 3, random_bytes(700, 0xE7)});
    byz.replace(kEmptyV, empty_v.encode());
    byz.replace(kSentinel, bytes_of(vid::kBadUploader));
    byz.replace(kUndecodable, random_bytes(300, 0xD0D0));
    byz.make_inconsistent(kInconsistent);
    DlNode byz_node(with_small_blocks(NodeConfig::dispersed_ledger(n, f, 3)),
                    byz);
    c.envs.back()->attach(byz_node);
    for (int i = 0; i < 3; ++i) {
      for (int k = 0; k < 20; ++k) {
        DlNode* node = c.nodes[static_cast<std::size_t>(i)];
        c.sim.queue().at(0.05 * k, [node, i, k] {
          node->submit(
              random_bytes(2000, static_cast<std::uint64_t>(i * 1000 + k)));
        });
      }
    }
    c.sim.run_until(6.0);
  }

  std::set<std::uint64_t> byz_epochs;
  std::size_t honest_with_txs = 0;
  for (const Seen& s : live) {
    EXPECT_EQ(s.digest, s.canonical)
        << "block " << s.key.epoch << "/" << s.key.proposer;
    if (s.key.proposer == 3) byz_epochs.insert(s.key.epoch);
    if (s.key.proposer != 3) ++honest_with_txs;
  }
  for (std::uint64_t e : {kEmptyV, kSentinel, kUndecodable, kInconsistent}) {
    EXPECT_TRUE(byz_epochs.contains(e)) << "epoch " << e << " not committed";
  }
  EXPECT_GT(honest_with_txs, 0u);

  // Replay hands the visitor the same digests, in the same order.
  auto store = open_store(dirs.node_dir(0));
  ASSERT_NE(store, nullptr);
  sim::Simulator sim2(sim::NetworkConfig::uniform(n, 0.02, 2e6));
  runtime::SimEnv env2(sim2, 0);
  DlNode node(with_small_blocks(NodeConfig::dispersed_ledger(n, f, 0)), env2);
  std::vector<Seen> replayed;
  node.attach_store(store.get(), recorder(&replayed, &node));
  ASSERT_FALSE(replayed.empty());
  ASSERT_LE(replayed.size(), live.size());
  for (std::size_t i = 0; i < replayed.size(); ++i) {
    EXPECT_EQ(replayed[i].key, live[i].key) << i;
    EXPECT_EQ(replayed[i].digest, live[i].digest) << i;
  }
}

TEST(DlNodeStore, LiveCatchUpAndReplayCommitIdentically) {
  // Phase 1 commits one sequence LIVE at nodes 0..2 (each with a store).
  // Node 3 is a slow Byzantine disperser whose epoch-2/3/4 dispersals are
  // swapped for, respectively: a valid codeword of the literal sentinel
  // bytes "BAD_UPLOADER", a valid codeword of bytes that do not decode as
  // a block, and an inconsistent chunk set (AVID-M BAD_UPLOADER). Its
  // slowness makes some of its blocks miss BA and arrive by linking.
  // Phase 2 restarts nodes 1 and 2 from their stores (REPLAY) and brings
  // node 0 back with an empty store, so it pulls the same sequence by
  // coded CATCH-UP, own blocks included. The three origins must agree on
  // every ledger line, seeded tx hash, fingerprint and delivery stat.
  const int n = 4, f = 1;
  const std::uint64_t kSentinel = 2, kUndecodable = 3, kInconsistent = 4;
  StoreDirs dirs;
  sim::NetworkConfig net = sim::NetworkConfig::uniform(n, 0.02, 2e6);
  net.egress[3] = sim::Trace::constant(0.3e6);
  net.ingress[3] = sim::Trace::constant(0.3e6);

  std::array<CommitLog, 3> live;
  {
    std::vector<std::unique_ptr<storage::LedgerStore>> stores;
    Cluster c(net);
    for (int i = 0; i < 3; ++i) {
      DlNode* node = c.add_node(
          with_small_blocks(NodeConfig::dispersed_ledger(n, f, i)));
      node->set_delivery_callback(
          live[static_cast<std::size_t>(i)].recorder(node));
      stores.push_back(open_store(dirs.node_dir(i)));
      ASSERT_NE(stores.back(), nullptr);
      node->attach_store(stores.back().get());
    }
    c.envs.push_back(std::make_unique<runtime::SimEnv>(c.sim, 3));
    DispersalRewriter byz(*c.envs.back(), vid::Params{n, f});
    byz.replace(kSentinel, bytes_of(vid::kBadUploader));
    byz.replace(kUndecodable, random_bytes(300, 0xD0D0));
    byz.make_inconsistent(kInconsistent);
    auto byz_cfg = with_small_blocks(NodeConfig::dispersed_ledger(n, f, 3));
    byz_cfg.backlog_tx_bytes = 250;  // full blocks over a slow link
    DlNode byz_node(byz_cfg, byz);
    c.envs.back()->attach(byz_node);
    for (int i = 0; i < 3; ++i) {
      for (int k = 0; k < 40; ++k) {
        DlNode* node = c.nodes[static_cast<std::size_t>(i)];
        c.sim.queue().at(0.05 * k, [node, i, k] {
          node->submit(
              random_bytes(2000, static_cast<std::uint64_t>(i * 1000 + k)));
        });
      }
    }
    c.sim.run_until(12.0);
  }
  for (const CommitLog& log : live) {
    expect_same_prefix(live[0], log, "live vs live");
  }

  // Phase 2: replay at nodes 1 and 2, catch-up at node 0.
  std::array<CommitLog, 3> replayed;
  std::array<NodeStats, 3> replayed_stats{};
  std::array<Hash, 3> replayed_fp{};
  CommitLog caught;
  {
    std::vector<std::unique_ptr<storage::LedgerStore>> stores(3);
    Cluster c(net);
    for (int i = 0; i < 3; ++i) {
      auto cfg = with_small_blocks(NodeConfig::dispersed_ledger(n, f, i));
      if (i == 0) cfg.catch_up_interval = 0.2;
      DlNode* node = c.add_node(cfg);
      const std::string dir =
          i == 0 ? dirs.root + "/n0-rejoin" : dirs.node_dir(i);
      stores[static_cast<std::size_t>(i)] = open_store(dir);
      ASSERT_NE(stores[static_cast<std::size_t>(i)], nullptr);
      auto& log = replayed[static_cast<std::size_t>(i)];
      node->attach_store(stores[static_cast<std::size_t>(i)].get(),
                         log.recorder(node));
      replayed_stats[static_cast<std::size_t>(i)] = node->stats();
      replayed_fp[static_cast<std::size_t>(i)] = node->delivery_fingerprint();
      if (i == 0) node->set_delivery_callback(caught.recorder(node));
    }
    c.add_crashed(3);
    c.sim.run_until(12.0);
  }

  // Replay reproduces each node's live sequence exactly, and its stats.
  for (int i = 1; i < 3; ++i) {
    const CommitLog& lv = live[static_cast<std::size_t>(i)];
    const CommitLog& rp = replayed[static_cast<std::size_t>(i)];
    ASSERT_FALSE(lv.lines.empty());
    EXPECT_EQ(rp.lines, lv.lines) << "node " << i;
    const NodeStats& s = replayed_stats[static_cast<std::size_t>(i)];
    const CommitLine& last = lv.lines.back();
    EXPECT_EQ(replayed_fp[static_cast<std::size_t>(i)], last.fingerprint);
    EXPECT_EQ(s.delivered_blocks, last.blocks);
    EXPECT_EQ(s.delivered_linked_blocks, last.linked);
    EXPECT_EQ(s.delivered_payload_bytes, last.payload);
    EXPECT_EQ(s.delivered_tx_count, last.txs);
    EXPECT_EQ(s.bad_uploader_blocks, last.bad);
  }
  EXPECT_TRUE(replayed[0].lines.empty());  // node 0 rejoined with no store

  // Catch-up reproduces the same sequence, line for line.
  std::size_t caught_lines = 0;
  while (caught_lines < caught.caught_up.size() &&
         caught.caught_up[caught_lines]) {
    ++caught_lines;
  }
  ASSERT_GT(caught_lines, 0u);
  expect_same_prefix(live[1], caught, "live vs catch-up");
  expect_same_prefix(live[0], caught, "live (own node) vs catch-up");

  // ...and what catch-up stored replays to the same lines again.
  {
    auto store = open_store(dirs.root + "/n0-rejoin");
    ASSERT_NE(store, nullptr);
    sim::Simulator sim3(net);
    runtime::SimEnv env3(sim3, 0);
    DlNode node(with_small_blocks(NodeConfig::dispersed_ledger(n, f, 0)), env3);
    CommitLog rp;
    node.attach_store(store.get(), rp.recorder(&node));
    EXPECT_EQ(rp.lines, caught.lines);
  }

  // The compared sequence holds every kind of block, all inside the stretch
  // node 0 pulled by catch-up.
  const CommitLog& ref = live[1];
  Block poison;
  poison.v_array.assign(static_cast<std::size_t>(n), kInfObservation);
  const Hash poison_hash = sha256(poison.encode());
  auto delta = [&](std::size_t i, std::uint64_t CommitLine::*field) {
    return ref.lines[i].*field - (i == 0 ? 0 : ref.lines[i - 1].*field);
  };
  for (std::uint64_t e : {kSentinel, kUndecodable, kInconsistent}) {
    const std::size_t i = ref.index_of(e, 3);
    ASSERT_LT(i, caught_lines) << "epoch " << e;
    EXPECT_EQ(ref.lines[i].block_hash, poison_hash) << "epoch " << e;
    EXPECT_EQ(delta(i, &CommitLine::payload), 0u);
    // Sentinel bytes are bad-uploader bytes, whichever path brought them.
    EXPECT_EQ(delta(i, &CommitLine::bad), e == kUndecodable ? 0u : 1u)
        << "epoch " << e;
  }
  bool linked = false, own = false;
  for (std::size_t i = 0; i < caught_lines; ++i) {
    linked |= ref.lines[i].at_epoch != ref.lines[i].block_epoch;
    own |= ref.lines[i].proposer == 0 && delta(i, &CommitLine::txs) > 0;
  }
  EXPECT_TRUE(linked);
  EXPECT_TRUE(own);
}

}  // namespace
}  // namespace dl::core

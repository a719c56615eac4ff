// lb_replica — one traced replica for the benchmark's per-layer run.
//
// Wires a replica exactly as dlnoded does for the benchmark's shape (one
// event loop, no worker pool, no ingress shards): net::TcpEnv + core::DlNode
// + client::Gateway on one EventLoop, an optional LedgerStore, and the same
// ledger-line format. The node sees the TcpEnv through lb::TracingEnv and
// the TcpEnv feeds the node through lb::TracingReceiver, so every call
// across the runtime seam is a span (see tracing.hpp). The delivery callback
// (ledger line + gateway fan-out) is a span too.
//
// Counters from the layers' public accessors (NodeStats, EventLoop stats,
// TcpEnv peer/shaper stats, BufferPool, LedgerStore) are sampled at the two
// ends of the measurement window --window T0,T1 (CLOCK_MONOTONIC seconds);
// per-layer metrics are window deltas. On SIGTERM/SIGINT the replica stops,
// writes the metrics to --out and the chrome trace to --trace, and exits 0.
// Startup failures exit 3 (bind collisions; the launcher retries).
//
// It also checks, at ledger level, that no transaction is delivered twice:
// every lb_client payload starts with a (seed, connection, index) header of
// three u64s, and a repeated (connection, index) is counted as a duplicate.
#include <sys/epoll.h>
#include <sys/signalfd.h>
#include <unistd.h>

#include <cinttypes>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "client/gateway.hpp"
#include "crypto/sha256.hpp"
#include "dl/node.hpp"
#include "lb_util.hpp"
#include "net/buffer_pool.hpp"
#include "net/tcp_env.hpp"
#include "obs/registry.hpp"
#include "storage/ledger_store.hpp"
#include "tracing.hpp"

namespace {

using namespace dl;

struct Flags {
  std::string config, ledger, store_dir, fsync = "batch", out, trace;
  int id = 0;
  std::size_t max_block_bytes = 262'144;
  double win0 = 0, win1 = 0;
  double max_seconds = 170;
};

struct Snap {
  core::NodeStats node;
  std::uint64_t wakes = 0, tasks = 0, timers = 0;
  std::uint64_t sent_frames = 0, sent_bytes = 0, shaper_waits = 0;
  net::BufferPool::Stats pool;
  storage::LedgerStore::Stats store;
  obs::Histogram::Snapshot drain;
  double loop_cpu = 0;
};

}  // namespace

int main(int argc, char** argv) {
  Flags fl;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string a = argv[i];
    const char* v = argv[i + 1];
    if (a == "--config") fl.config = v;
    else if (a == "--id") fl.id = std::atoi(v);
    else if (a == "--ledger") fl.ledger = v;
    else if (a == "--store") fl.store_dir = v;
    else if (a == "--fsync") fl.fsync = v;
    else if (a == "--max-block-bytes") fl.max_block_bytes = static_cast<std::size_t>(std::atoll(v));
    else if (a == "--window") std::sscanf(v, "%lf,%lf", &fl.win0, &fl.win1);
    else if (a == "--out") fl.out = v;
    else if (a == "--trace") fl.trace = v;
    else if (a == "--max-seconds") fl.max_seconds = std::atof(v);
    else {
      std::fprintf(stderr, "lb_replica: unknown flag %s\n", a.c_str());
      return 2;
    }
  }
  std::string err;
  auto cluster = net::ClusterConfig::load(fl.config, &err);
  if (!cluster.has_value() || fl.out.empty() || fl.win1 <= fl.win0 ||
      !storage::parse_fsync_policy(fl.fsync).has_value()) {
    std::fprintf(stderr, "lb_replica: bad arguments or config: %s\n", err.c_str());
    return 2;
  }
  const net::NodeAddr me = cluster->nodes[static_cast<std::size_t>(fl.id)];

  std::unique_ptr<storage::LedgerStore> store;
  obs::Histogram drain_hist;
  if (!fl.store_dir.empty()) {
    storage::StoreOptions sopt;
    sopt.fsync = *storage::parse_fsync_policy(fl.fsync);
    store = storage::LedgerStore::open(fl.store_dir, sopt, &err);
    if (store == nullptr) {
      std::fprintf(stderr, "lb_replica: cannot open store: %s\n", err.c_str());
      return 2;
    }
    // Unlike dlnoded, this replica does not replay a recovered prefix into
    // its ledger, so its ledger would not be comparable with the others'.
    if (store->recovered().delivered_epochs > 0) {
      std::fprintf(stderr, "lb_replica: store %s is not empty\n", fl.store_dir.c_str());
      return 2;
    }
    store->set_drain_histogram(&drain_hist);
  }
  std::FILE* ledger = fl.ledger.empty() ? nullptr : std::fopen(fl.ledger.c_str(), "w");
  if (ledger != nullptr) std::setvbuf(ledger, nullptr, _IOLBF, 1u << 16);

  sigset_t sigmask;
  sigemptyset(&sigmask);
  sigaddset(&sigmask, SIGINT);
  sigaddset(&sigmask, SIGTERM);
  sigprocmask(SIG_BLOCK, &sigmask, nullptr);

  lb::Tracer tracer;
  net::EventLoop loop;
  std::unique_ptr<net::TcpEnv> env;
  std::unique_ptr<lb::TracingEnv> tenv;
  std::unique_ptr<core::DlNode> node;
  std::unique_ptr<lb::TracingReceiver> trecv;
  std::unique_ptr<client::Gateway> gateway;
  try {
    env = std::make_unique<net::TcpEnv>(loop, *cluster, fl.id);
    tenv = std::make_unique<lb::TracingEnv>(*env, tracer);
    core::NodeConfig cfg = core::NodeConfig::dispersed_ledger(cluster->n, cluster->f, fl.id);
    cfg.propose_delay = 0.020;  // dlnoded defaults
    cfg.propose_size = 32'768;
    cfg.max_block_bytes = fl.max_block_bytes;
    if (store != nullptr) cfg.catch_up_interval = 0.25;
    node = std::make_unique<core::DlNode>(cfg, *tenv);
    if (store != nullptr) node->attach_store(store.get());
    trecv = std::make_unique<lb::TracingReceiver>(*node, tracer);
    client::Gateway::Options gopt;
    gopt.mempool.max_tx_bytes = std::min(gopt.mempool.max_tx_bytes, fl.max_block_bytes / 2);
    gateway = std::make_unique<client::Gateway>(loop, *node, me.host, me.client_port, gopt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "lb_replica[%d]: startup failed: %s\n", fl.id, e.what());
    return 3;
  }

  std::unordered_set<std::uint64_t> seen_txs;
  std::uint64_t delivered_txs = 0, duplicate_txs = 0;
  node->set_delivery_callback([&](std::uint64_t at_epoch, core::BlockKey key,
                                  const core::Block& block, double now) {
    lb::Tracer::Scope s(&tracer, "deliver", key.epoch, static_cast<std::uint32_t>(key.proposer));
    for (const core::Transaction& tx : block.txs) {
      ++delivered_txs;
      std::uint64_t hdr[3] = {};
      if (tx.payload.size() < sizeof hdr) continue;
      std::memcpy(hdr, tx.payload.data(), sizeof hdr);
      if (!seen_txs.insert(hdr[1] << 40 ^ hdr[2]).second) ++duplicate_txs;
    }
    if (ledger != nullptr) {
      std::fprintf(ledger, "%" PRIu64 " %" PRIu64 " %d %s\n", at_epoch, key.epoch,
                   key.proposer, sha256(block.encode()).hex().c_str());
    }
    gateway->on_block_delivered(at_epoch, key, block, now);
  });

  const double off = lb::mono_now() - loop.now();  // mono = loop + off
  tracer.set_window(fl.win0, fl.win1);
  auto take = [&](Snap& s) {
    s.node = node->stats();
    s.wakes = loop.stats().wakes.load();
    s.tasks = loop.stats().tasks.load();
    s.timers = loop.stats().timers.load();
    for (int p = 0; p < cluster->n; ++p) {
      if (p == fl.id) continue;
      const auto ps = env->peer_stats(p);
      s.sent_frames += ps.sent_frames;
      s.sent_bytes += ps.sent_bytes;
      s.shaper_waits += ps.shaper_waits;
    }
    s.pool = net::BufferPool::stats();
    if (store != nullptr) s.store = store->stats();
    s.drain = drain_hist.snapshot();
    s.loop_cpu = lb::clock_seconds(CLOCK_THREAD_CPUTIME_ID);
  };
  Snap s0, s1;
  bool have0 = false, have1 = false;
  std::vector<double> queued;
  loop.at(fl.win0 - off, [&] {
    take(s0);
    have0 = true;
  });
  loop.at(fl.win1 - off, [&] {
    take(s1);
    have1 = true;
  });
  std::function<void()> sample_queue = [&] {
    const double now = loop.now() + off;
    if (now >= fl.win1) return;
    if (now >= fl.win0) {
      double q = 0;
      for (int p = 0; p < cluster->n; ++p) {
        if (p != fl.id) q += static_cast<double>(env->peer_stats(p).queued_bytes);
      }
      queued.push_back(q);
    }
    loop.after(0.01, sample_queue);
  };
  loop.after(0.01, sample_queue);

  const int sfd = signalfd(-1, &sigmask, SFD_NONBLOCK | SFD_CLOEXEC);
  if (sfd >= 0) {
    loop.add_fd(sfd, EPOLLIN, [&](std::uint32_t) {
      signalfd_siginfo si;
      while (read(sfd, &si, sizeof si) == sizeof si) {
      }
      gateway->shutdown();
      if (ledger != nullptr) std::fflush(ledger);
      loop.stop();
    });
  }
  loop.after(fl.max_seconds, [&] { loop.stop(); });

  env->start(*trecv);
  gateway->start();
  loop.run();
  gateway->shutdown();
  if (sfd >= 0) {
    loop.del_fd(sfd);
    close(sfd);
  }
  if (store != nullptr) store->sync();
  if (ledger != nullptr) std::fclose(ledger);
  if (!fl.trace.empty() && !tracer.write_chrome(fl.trace, fl.id)) {
    std::fprintf(stderr, "lb_replica: cannot write %s\n", fl.trace.c_str());
  }

  lb::Result r;
  r.set("window_complete", have0 && have1 ? 1 : 0);
  r.set("ledger_txs", static_cast<double>(delivered_txs));
  r.set("ledger_duplicate_txs", static_cast<double>(duplicate_txs));
  if (have0 && have1) {
    const double win = fl.win1 - fl.win0;
    tracer.print_table("lb_replica");
    using lb::per;
    auto self = [&](const char* prefix) { return tracer.sum(prefix).self_s; };
    auto per_mb = [&](const char* name) {
      const lb::Tracer::Totals t = tracer.sum(name);
      return per(t.self_s * 1e6, t.bytes / 1e6);
    };
    const auto d = [](std::uint64_t a, std::uint64_t b) { return static_cast<double>(b - a); };
    const double txs = d(s0.node.delivered_tx_count, s1.node.delivered_tx_count);
    const double blocks = d(s0.node.delivered_blocks, s1.node.delivered_blocks);
    const double epochs = d(s0.node.delivered_epochs, s1.node.delivered_epochs);
    const double payload = d(s0.node.delivered_payload_bytes, s1.node.delivered_payload_bytes);
    const double frames = d(s0.sent_frames, s1.sent_frames);
    const int n = cluster->n;
    const double data_shards = n - 2 * cluster->f;
    r.set("dl.receive_self_us_per_tx", per(self("recv.") * 1e6, txs));
    r.set("dl.timer_self_us_per_tx", per(self("timer") * 1e6, txs));
    r.set("dl.deliver_us_per_tx", per(tracer.sum("deliver").total_s * 1e6, txs));
    r.set("dl.tx_per_block", per(txs, blocks));
    r.set("dl.epochs_per_s", epochs / win);
    r.set("dl.own_blocks_dropped_ratio",
          per(d(s0.node.own_blocks_dropped, s1.node.own_blocks_dropped),
              d(s0.node.proposed_blocks, s1.node.proposed_blocks)));
    r.set("dl.retrieve_chunk_waste",
          per(d(s0.node.return_chunks_received, s1.node.return_chunks_received),
              data_shards * tracer.sum("offload.decode").count));
    r.set("ba.msgs_per_epoch", per(d(s0.node.ba_msgs_received, s1.node.ba_msgs_received), epochs));
    r.set("ba.self_us_per_epoch", per(self("recv.ba") * 1e6, epochs));
    r.set("vid.disperse_us_per_mb", per_mb("offload.disperse"));
    r.set("vid.decode_verify_us_per_mb", per_mb("offload.decode"));
    r.set("vid.chunk_rx_us", per(self("recv.vid_chunk") * 1e6, tracer.sum("recv.vid_chunk").count));
    r.set("net.wire_bytes_per_payload_byte", per(d(s0.sent_bytes, s1.sent_bytes), payload));
    r.set("net.frames_per_tx", per(frames, txs));
    r.set("net.send_us_per_frame", per((tracer.sum("send").total_s + tracer.sum("broadcast").total_s) * 1e6, frames));
    r.set("net.wakes_per_tx", per(d(s0.wakes, s1.wakes), txs));
    r.set("net.tasks_per_tx", per(d(s0.tasks, s1.tasks) + d(s0.timers, s1.timers), txs));
    const double loop_cpu = s1.loop_cpu - s0.loop_cpu;
    r.set("net.loop_busy_ratio", loop_cpu / win);
    r.set("net.loop_residual_us_per_tx", per((loop_cpu - tracer.top_level_s()) * 1e6, txs));
    const double fresh = d(s0.pool.fresh_allocs, s1.pool.fresh_allocs);
    r.set("net.bufpool_fresh_ratio", per(fresh, fresh + d(s0.pool.pool_hits, s1.pool.pool_hits)));
    r.set("net.peer_queued_bytes_p99", lb::quantile(queued, 0.99));
    r.set("net.shaper_waits_per_s", d(s0.shaper_waits, s1.shaper_waits) / win);
    obs::Histogram::Snapshot dh;
    for (int b = 0; b < obs::Histogram::kBuckets; ++b) {
      dh.buckets[static_cast<std::size_t>(b)] =
          s1.drain.buckets[static_cast<std::size_t>(b)] - s0.drain.buckets[static_cast<std::size_t>(b)];
    }
    dh.count = s1.drain.count - s0.drain.count;
    dh.sum = s1.drain.sum - s0.drain.sum;
    r.set("storage.drain_us_p99", dh.count > 0 ? dh.quantile(0.99) : 0);
    r.set("storage.fsyncs_per_block", per(d(s0.store.fsyncs, s1.store.fsyncs), blocks));
    r.set("storage.bytes_per_payload_byte",
          per(d(s0.store.appended_bytes, s1.store.appended_bytes), payload));
  }
  if (!r.write(fl.out)) return 1;
  return 0;
}

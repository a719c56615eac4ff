// dlnoded — one DispersedLedger replica as a real process over TCP.
//
// Loads a cluster config (see net/cluster_config.hpp), runs a DlNode on a
// net::TcpEnv, and streams the committed ledger to a file: one line per
// delivered block,
//
//   <delivered-at-epoch> <block-epoch> <proposer> <sha256 of block bytes>
//
// in delivery order — identical across correct replicas (the smoke test in
// scripts/run_local_cluster.sh diffs these files).
//
// Transactions come from one of two sources:
//
//   - The client ingress plane (default when the config gives this node a
//     client_port): a client::Gateway on the node's event loop accepts
//     dl_client/dl_loadgen connections, admits transactions through a
//     client::Mempool, and notifies submitters when their transactions
//     commit. See docs/DEPLOY.md.
//   - --selfdrive: the legacy synthetic generator (one transaction every
//     --tx-interval-ms), for self-contained smoke runs with no external
//     load source.
//
// Threads: one. Client ingress, peer sockets, the protocol and all erasure
// coding / Merkle hashing run on the node's one event loop. --loops,
// --workers and --net-loops are still parsed so old launch lines keep
// working, but accept only their single-loop values (1, 0 and 1).
//
// Lifecycle: with --target-epochs E the process exits 0 once it delivered E
// epochs, after a --linger-seconds grace during which it keeps serving
// retrieval chunks to stragglers; E = 0 means run until signalled.
// SIGINT/SIGTERM trigger a graceful shutdown — close client connections
// with a final Goodbye frame, flush the ledger stream, exit 0 — instead of
// dying mid-write. --max-seconds is a hard watchdog that exits 1.
#include <sys/epoll.h>
#include <sys/signalfd.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <string>

#include "adversary/adversary.hpp"
#include "client/gateway.hpp"
#include "crypto/sha256.hpp"
#include "dl/node.hpp"
#include "net/tcp_env.hpp"
#include "obs/admin.hpp"
#include "obs/exporter.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/registry.hpp"
#include "storage/ledger_store.hpp"

namespace {

struct Flags {
  std::string config;
  int id = -1;
  std::uint64_t target_epochs = 100;  // 0 = run until signalled
  bool selfdrive = false;
  std::size_t tx_bytes = 256;
  double tx_interval = 0.005;     // seconds
  double propose_delay = 0.020;   // seconds
  std::size_t propose_size = 32'768;
  std::size_t max_block_bytes = 262'144;
  std::string ledger_path;
  std::string store_dir;          // empty: run in-memory (no durability)
  std::string fsync = "batch";    // never | batch | always
  double catch_up_interval = -1;  // seconds; <0 = auto (on iff --store)
  double linger = 3.0;
  double max_seconds = 120.0;
  bool quiet = false;
  int loops = 1;      // removed tier: only 1 is accepted
  int workers = 0;    // removed tier: only 0 is accepted
  int net_loops = 1;  // removed tier: only 1 is accepted
  std::string adversary;  // deviation spec; empty = honest
  int admin_port = -1;     // <0 = no admin endpoint; 0 = ephemeral port
  double stats_interval = 0;  // seconds; 0 = no periodic delta line
  std::string flight_path;    // chrome-trace dump at exit; empty = off
};

void usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s --config FILE --id N [options]\n"
      "  --config FILE          cluster TOML (required)\n"
      "  --id N                 this replica's node id (required)\n"
      "  --target-epochs E      deliver E epochs, then exit (default 100; 0 = until signal)\n"
      "  --selfdrive            drive a synthetic workload (no client plane needed)\n"
      "  --tx-bytes B           synthetic transaction payload size (default 256)\n"
      "  --tx-interval-ms M     submit one synthetic tx every M ms (default 5)\n"
      "  --propose-delay-ms M   proposal pacing delay (default 20)\n"
      "  --propose-size B       proposal pacing size trigger (default 32768)\n"
      "  --max-block-bytes B    block size cap (default 262144)\n"
      "  --loops 1 --workers 0 --net-loops 1\n"
      "                         accepted for old launch lines; ingress, coding\n"
      "                         and peer sockets always run on the node loop\n"
      "                         (other values: error)\n"
      "  --ledger FILE          write the committed-ledger log here\n"
      "  --store DIR            durable ledger store: persist committed blocks\n"
      "                         under DIR and recover the prefix at boot\n"
      "  --fsync P              store durability: never | batch | always\n"
      "                         (default batch: group-commit fsync)\n"
      "  --catchup-ms M         probe peers for missed epochs every M ms when\n"
      "                         delivery stalls (0 disables; default: 250 with\n"
      "                         --store, off without)\n"
      "  --adversary MODE       run as a misbehaving replica:\n"
      "                         crash@E (exit abruptly once epoch E commits),\n"
      "                         mute (connected, all Data frames dropped),\n"
      "                         slowdrip[@RATE] (egress crawls at RATE B/s, default 4096),\n"
      "                         equivocate (inconsistent blocks), v-liar (inflated V)\n"
      "  --admin-port P         serve GET /metrics /statusz /healthz /tracez on\n"
      "                         127.0.0.1:P (0 = ephemeral, logged at startup)\n"
      "  --stats-interval S     log a one-line activity delta every S seconds\n"
      "  --flight-recorder FILE dump the protocol flight recorder as\n"
      "                         chrome-trace JSON to FILE at exit\n"
      "  --linger-seconds S     keep serving after target before exit (default 3)\n"
      "  --max-seconds S        watchdog: exit 1 if not done by then (default 120)\n"
      "  --quiet                suppress progress output\n",
      argv0);
}

bool parse_flags(int argc, char** argv, Flags& f) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (a == "--config" && (v = next())) {
      f.config = v;
    } else if (a == "--id" && (v = next())) {
      f.id = std::atoi(v);
    } else if (a == "--target-epochs" && (v = next())) {
      f.target_epochs = static_cast<std::uint64_t>(std::atoll(v));
    } else if (a == "--selfdrive") {
      f.selfdrive = true;
    } else if (a == "--tx-bytes" && (v = next())) {
      f.tx_bytes = static_cast<std::size_t>(std::atoll(v));
    } else if (a == "--tx-interval-ms" && (v = next())) {
      f.tx_interval = std::atof(v) / 1000.0;
    } else if (a == "--propose-delay-ms" && (v = next())) {
      f.propose_delay = std::atof(v) / 1000.0;
    } else if (a == "--propose-size" && (v = next())) {
      f.propose_size = static_cast<std::size_t>(std::atoll(v));
    } else if (a == "--max-block-bytes" && (v = next())) {
      f.max_block_bytes = static_cast<std::size_t>(std::atoll(v));
    } else if (a == "--loops" && (v = next())) {
      f.loops = std::atoi(v);
    } else if (a == "--workers" && (v = next())) {
      f.workers = std::atoi(v);
    } else if (a == "--net-loops" && (v = next())) {
      f.net_loops = std::atoi(v);
    } else if (a == "--adversary" && (v = next())) {
      f.adversary = v;
    } else if (a == "--admin-port" && (v = next())) {
      f.admin_port = std::atoi(v);
    } else if (a == "--stats-interval" && (v = next())) {
      f.stats_interval = std::atof(v);
    } else if (a == "--flight-recorder" && (v = next())) {
      f.flight_path = v;
    } else if (a == "--ledger" && (v = next())) {
      f.ledger_path = v;
    } else if (a == "--store" && (v = next())) {
      f.store_dir = v;
    } else if (a == "--fsync" && (v = next())) {
      f.fsync = v;
    } else if (a == "--catchup-ms" && (v = next())) {
      f.catch_up_interval = std::atof(v) / 1000.0;
    } else if (a == "--linger-seconds" && (v = next())) {
      f.linger = std::atof(v);
    } else if (a == "--max-seconds" && (v = next())) {
      f.max_seconds = std::atof(v);
    } else if (a == "--quiet") {
      f.quiet = true;
    } else {
      usage(argv[0]);
      return false;
    }
  }
  if (f.loops != 1 || f.workers != 0 || f.net_loops != 1) {
    std::fprintf(stderr,
                 "%s: --loops %d --workers %d --net-loops %d: the ingress-"
                 "shard, coding-pool and transport-loop tiers were removed; "
                 "only --loops 1 --workers 0 --net-loops 1 are accepted\n",
                 argv[0], f.loops, f.workers, f.net_loops);
    return false;
  }
  if (f.config.empty() || f.id < 0 ||
      f.admin_port > 65535 || f.stats_interval < 0 ||
      !dl::storage::parse_fsync_policy(f.fsync).has_value()) {
    usage(argv[0]);
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dl;

  Flags flags;
  if (!parse_flags(argc, argv, flags)) return 2;

  std::string err;
  auto cluster = net::ClusterConfig::load(flags.config, &err);
  if (!cluster.has_value()) {
    std::fprintf(stderr, "dlnoded: bad config: %s\n", err.c_str());
    return 2;
  }
  if (flags.id >= cluster->n) {
    std::fprintf(stderr, "dlnoded: --id %d out of range (n=%d)\n", flags.id,
                 cluster->n);
    return 2;
  }
  adversary::RealAdversary adv;
  if (!flags.adversary.empty()) {
    auto parsed = adversary::parse_real_adversary(flags.adversary);
    if (!parsed.has_value()) {
      std::fprintf(stderr, "dlnoded: bad --adversary spec \"%s\"\n",
                   flags.adversary.c_str());
      return 2;
    }
    adv = *parsed;
  }
  // A VID chunk envelope carries at most one block plus small proof/header
  // overhead; anything the transport's frame limit forbids would tear every
  // connection down on each send, so reject the configuration up front.
  if (flags.max_block_bytes + 65536 > net::kMaxFrameBytes) {
    std::fprintf(stderr,
                 "dlnoded: --max-block-bytes %zu too large for the %zu-byte "
                 "frame limit\n",
                 flags.max_block_bytes, net::kMaxFrameBytes);
    return 2;
  }

  // Durable store first: what it recovered decides how the text ledger is
  // opened. Declared before env/node so it is destroyed LAST — the node
  // holds a raw pointer to it.
  std::unique_ptr<storage::LedgerStore> store;
  if (!flags.store_dir.empty()) {
    storage::StoreOptions sopt;
    sopt.fsync = *storage::parse_fsync_policy(flags.fsync);
    store = storage::LedgerStore::open(flags.store_dir, sopt, &err);
    if (store == nullptr) {
      std::fprintf(stderr, "dlnoded: cannot open store %s: %s\n",
                   flags.store_dir.c_str(), err.c_str());
      return 2;
    }
    if (!flags.quiet && store->recovered().delivered_epochs > 0) {
      const auto& rec = store->recovered();
      std::fprintf(stderr,
                   "dlnoded[%d]: recovered %" PRIu64 " epochs / %" PRIu64
                   " blocks from %s (truncated %" PRIu64 " bytes)\n",
                   flags.id, rec.delivered_epochs, rec.committed_blocks,
                   flags.store_dir.c_str(), rec.truncated_bytes);
    }
  }

  // The text ledger is a derived view of the store: with a store the
  // recovered prefix is rewritten below and live deliveries append after
  // it; without one, APPEND — the old fopen(path, "w") truncated the
  // pre-crash prefix on every restart, destroying exactly the history a
  // restart is supposed to keep.
  std::FILE* ledger = nullptr;
  if (!flags.ledger_path.empty()) {
    ledger =
        std::fopen(flags.ledger_path.c_str(), store != nullptr ? "w" : "a");
    if (ledger == nullptr) {
      std::fprintf(stderr, "dlnoded: cannot open %s\n", flags.ledger_path.c_str());
      return 2;
    }
    // Line-buffered: a kill loses at most the line being formatted, never
    // leaves half a line in a stdio buffer for the smoke diff to trip on.
    std::setvbuf(ledger, nullptr, _IOLBF, 1u << 16);
  }

  // The one ledger-line formatter, shared by live delivery and boot replay.
  // `digest` is DlNode::ledger_digest(), taken inside the callback.
  auto write_ledger_line = [ledger](std::uint64_t at_epoch, core::BlockKey key,
                                    const Hash& digest) {
    if (ledger == nullptr) return;
    std::fprintf(ledger, "%" PRIu64 " %" PRIu64 " %d %s\n", at_epoch,
                 key.epoch, key.proposer, digest.hex().c_str());
  };

  const net::NodeAddr& me = cluster->nodes[static_cast<std::size_t>(flags.id)];

  // Block SIGINT/SIGTERM/SIGUSR1 so a signal can only ever be consumed
  // through the signalfd below, on the loop — never delivered
  // asynchronously, where the default disposition would kill the process
  // mid-ledger-line. SIGUSR1 asks for a metrics snapshot, not shutdown.
  sigset_t sigmask;
  sigemptyset(&sigmask);
  sigaddset(&sigmask, SIGINT);
  sigaddset(&sigmask, SIGTERM);
  sigaddset(&sigmask, SIGUSR1);
  sigprocmask(SIG_BLOCK, &sigmask, nullptr);

  net::EventLoop loop;
  std::unique_ptr<net::TcpEnv> env;
  std::unique_ptr<core::DlNode> node;
  std::unique_ptr<client::Gateway> gateway;  // null without a client_port
  // Observability plane. The registry outlives the admin server and the
  // exporter; the exporter's sample hook dereferences node/env/store, all of
  // which are destroyed after these (declared above).
  obs::Registry registry;
  std::unique_ptr<obs::FlightRecorder> flight;
  std::unique_ptr<obs::NodeExporter> exporter;
  std::unique_ptr<obs::AdminServer> admin;
  try {
    net::TcpEnv::Options eopt;
    if (adv.kind == adversary::RealAdversary::Kind::Mute) {
      eopt.adversary = net::WireAdversary::Mute;
    } else if (adv.kind == adversary::RealAdversary::Kind::SlowDrip) {
      eopt.adversary = net::WireAdversary::SlowDrip;
      eopt.slow_drip_bytes_per_sec = adv.drip_bytes_per_sec;
    }
    env = std::make_unique<net::TcpEnv>(loop, *cluster, flags.id, eopt);

    core::NodeConfig cfg =
        core::NodeConfig::dispersed_ledger(cluster->n, cluster->f, flags.id);
    cfg.propose_delay = flags.propose_delay;
    cfg.propose_size = flags.propose_size;
    cfg.max_block_bytes = flags.max_block_bytes;
    // Protocol-level deviations (equivocate / v-liar) — the same byz flags
    // the sim adversary tests exercise, now on a real wire.
    adversary::apply(adv, cfg);
    // Catch-up defaults on only when there is a store to serve it from and
    // to persist what it pulls.
    if (flags.catch_up_interval >= 0) {
      cfg.catch_up_interval = flags.catch_up_interval;
    } else if (store != nullptr) {
      cfg.catch_up_interval = 0.25;
    }
    node = std::make_unique<core::DlNode>(cfg, *env);

    if (me.client_port != 0) {
      client::Gateway::Options gopt;
      // A transaction must fit into a block next to its header.
      gopt.mempool.max_tx_bytes =
          std::min(gopt.mempool.max_tx_bytes, flags.max_block_bytes / 2);
      gateway = std::make_unique<client::Gateway>(loop, *node, me.host,
                                                  me.client_port, gopt);
    }

    // Replay the recovered prefix through the node's commit path: rewrite
    // the text ledger's derived view and seed the gateway's committed ring,
    // so a payload that committed before the crash is answered
    // TxStatus::Committed on resubmit instead of being committed a second
    // time. The gateway must exist by now; nothing has started yet.
    if (store != nullptr) {
      node->attach_store(store.get(), [&](std::uint64_t at_epoch,
                                          core::BlockKey key,
                                          const core::Block& block, double) {
        write_ledger_line(at_epoch, key, node->ledger_digest());
        if (gateway == nullptr) return;
        const auto proposer = static_cast<std::uint32_t>(key.proposer);
        for (const core::Transaction& tx : block.txs) {
          gateway->mempool().seed_committed(sha256(tx.payload), at_epoch,
                                            proposer);
        }
      });
    }

    // Observability: the flight recorder is live whenever anyone could ask
    // for it (/tracez or the exit dump); the exporter + histograms only when
    // some consumer exists (metric mirroring and task timing are skipped
    // entirely otherwise).
    if (flags.admin_port >= 0 || !flags.flight_path.empty()) {
      flight = std::make_unique<obs::FlightRecorder>();
      node->set_flight_recorder(flight.get());
    }
    if (flags.admin_port >= 0 || flags.stats_interval > 0) {
      obs::ExporterSources es;
      es.node = node.get();
      es.env = env.get();
      es.home_loop = &loop;
      es.gateway = gateway.get();
      es.store = store.get();
      exporter = std::make_unique<obs::NodeExporter>(registry, es);
      loop.set_task_histogram(registry.histogram(
          "dl_loop_task_us", "task/timer run latency in microseconds",
          "loop=\"home\""));
      if (store != nullptr) {
        store->set_drain_histogram(registry.histogram(
            "dl_store_drain_us", "drain_io latency in microseconds"));
      }
    }
    if (flags.admin_port >= 0) {
      obs::AdminServer::Options aopt;
      aopt.port = static_cast<std::uint16_t>(flags.admin_port);
      aopt.pid = flags.id;
      admin = std::make_unique<obs::AdminServer>(loop, registry, aopt);
      if (flight != nullptr) admin->set_flight_recorder(flight.get());
      if (!flags.quiet) {
        std::fprintf(stderr, "dlnoded[%d]: admin endpoint on 127.0.0.1:%u\n",
                     flags.id, admin->bound_port());
      }
    }

  } catch (const std::exception& e) {
    // Distinct exit code: the launcher retries bind collisions on a fresh
    // port range (see scripts/run_local_cluster.sh).
    std::fprintf(stderr, "dlnoded[%d]: startup failed: %s\n", flags.id,
                 e.what());
    if (ledger != nullptr) std::fclose(ledger);
    return 3;
  }

  bool done = false;
  bool timed_out = false;
  bool signalled = false;

  auto finish = [&](const char* why) {
    if (done) return;
    done = true;
    if (!flags.quiet) {
      std::fprintf(stderr,
                   "dlnoded[%d]: %s at t=%.2fs (epochs=%" PRIu64
                   "); lingering %.1fs\n",
                   flags.id, why, env->now(), node->stats().delivered_epochs,
                   flags.linger);
    }
    // Keep answering retrieval requests while slower replicas catch up.
    env->after(flags.linger, [&loop] { loop.stop(); });
  };

  node->set_delivery_callback([&](std::uint64_t at_epoch, core::BlockKey key,
                                  const core::Block& block, double now) {
    write_ledger_line(at_epoch, key, node->ledger_digest());
    if (adv.kind == adversary::RealAdversary::Kind::CrashAtEpoch &&
        at_epoch >= adv.crash_epoch) {
      // Abrupt death, not graceful shutdown: no linger, no Goodbye frames,
      // no store sync — exactly what crash recovery must tolerate. The
      // ledger stream is line-buffered, so completed lines are already out.
      std::fprintf(stderr, "dlnoded[%d]: adversary crash at epoch %" PRIu64 "\n",
                   flags.id, at_epoch);
      std::_Exit(44);
    }
    if (gateway != nullptr) {
      gateway->on_block_delivered(at_epoch, key, block, now);
    }
    if (flags.target_epochs != 0 &&
        node->stats().delivered_epochs >= flags.target_epochs) {
      finish("target epochs delivered");
    }
  });

  // Synthetic self-driven workload (legacy smoke mode).
  std::uint64_t tx_seq = 0;
  std::function<void()> submit_tick = [&] {
    if (done) return;
    node->submit(random_bytes(flags.tx_bytes,
                              (static_cast<std::uint64_t>(flags.id) << 40) | tx_seq++));
    env->after(flags.tx_interval, submit_tick);
  };
  if (flags.selfdrive) env->after(flags.tx_interval, submit_tick);

  // Graceful SIGINT/SIGTERM: flush the ledger, say Goodbye to clients, exit
  // cleanly — never die mid-ledger-line. The signals were blocked before
  // any thread was spawned (see above); they arrive on a signalfd
  // multiplexed on the same epoll loop, so no async-signal-safety games.
  const int sfd = signalfd(-1, &sigmask, SFD_NONBLOCK | SFD_CLOEXEC);
  if (sfd < 0) {
    // No graceful path — restore default delivery so the process at least
    // stays killable instead of silently swallowing blocked signals.
    sigprocmask(SIG_UNBLOCK, &sigmask, nullptr);
  }
  if (sfd >= 0) {
    loop.add_fd(sfd, EPOLLIN, [&](std::uint32_t) {
      bool shutdown_sig = false;
      signalfd_siginfo si;
      while (read(sfd, &si, sizeof si) == sizeof si) {
        if (si.ssi_signo == SIGUSR1) {
          // Operator asked for a snapshot: dump the full exposition to
          // stderr and keep running. We are on the home loop, so the
          // registry sample hooks may read home-loop-affine state.
          std::fprintf(stderr, "%s", registry.prometheus_text().c_str());
        } else {
          shutdown_sig = true;
        }
      }
      if (!shutdown_sig || signalled) return;
      signalled = true;
      if (!flags.quiet) {
        std::fprintf(stderr, "dlnoded[%d]: signal: graceful shutdown\n",
                     flags.id);
      }
      if (gateway != nullptr) gateway->shutdown();
      if (ledger != nullptr) std::fflush(ledger);
      loop.stop();
    });
  }

  // Periodic one-line activity delta (epochs, tx/s, submit/admit rates,
  // wire byte rates, fsync rate) — cheap enough to leave on in production.
  std::function<void()> stats_tick = [&] {
    std::fprintf(stderr, "dlnoded[%d]: %s\n", flags.id,
                 exporter->delta_line(env->now()).c_str());
    env->after(flags.stats_interval, stats_tick);
  };
  if (flags.stats_interval > 0 && exporter != nullptr) {
    // Seed the delta base now so the first printed line covers one interval.
    exporter->delta_line(env->now());
    env->after(flags.stats_interval, stats_tick);
  }

  // Watchdog.
  env->after(flags.max_seconds, [&] {
    if (!done && !signalled) {
      timed_out = true;
      std::fprintf(stderr,
                   "dlnoded[%d]: TIMEOUT after %.0fs: delivered_epochs=%" PRIu64
                   " (target %" PRIu64 "), connected_peers=%d\n",
                   flags.id, flags.max_seconds, node->stats().delivered_epochs,
                   flags.target_epochs, env->connected_peers());
      loop.stop();
    }
  });

  env->start(*node);
  if (gateway != nullptr) gateway->start();
  loop.run();

  // Ingress first (no new submissions or commit notifications), then — by
  // reverse declaration order — the node and env with the loop stopped.
  if (gateway != nullptr) gateway->shutdown();
  if (sfd >= 0) {
    loop.del_fd(sfd);
    close(sfd);
  }
  // Final durability point: everything delivered is on disk before the
  // process reports success (the store destructor would also sync, but by
  // then the stats below have already been printed).
  if (store != nullptr) store->sync();
  if (ledger != nullptr) std::fclose(ledger);
  if (flight != nullptr && !flags.flight_path.empty()) {
    if (!flight->dump_to_file(flags.flight_path, flags.id)) {
      std::fprintf(stderr, "dlnoded[%d]: cannot write flight recorder to %s\n",
                   flags.id, flags.flight_path.c_str());
    } else if (!flags.quiet) {
      std::fprintf(stderr,
                   "dlnoded[%d]: flight recorder: %" PRIu64 " events (%" PRIu64
                   " dropped) -> %s\n",
                   flags.id, flight->total_recorded(), flight->dropped(),
                   flags.flight_path.c_str());
    }
  }
  const auto& st = node->stats();
  if (!flags.quiet) {
    std::fprintf(stderr,
                 "dlnoded[%d]: exit: epochs=%" PRIu64 " blocks=%" PRIu64
                 " payload_bytes=%" PRIu64 " fingerprint=%s\n",
                 flags.id, st.delivered_epochs, st.delivered_blocks,
                 st.delivered_payload_bytes,
                 node->delivery_fingerprint().hex().substr(0, 16).c_str());
    if (store != nullptr) {
      const auto ss = store->stats();
      std::fprintf(stderr,
                   "dlnoded[%d]: store: fsync=%s recovered=%" PRIu64
                   " caught_up=%" PRIu64 " records=%" PRIu64
                   " bytes=%" PRIu64 " drains=%" PRIu64 " fsyncs=%" PRIu64
                   " segments=%zu\n",
                   flags.id, storage::to_string(store->fsync_policy()),
                   st.recovered_epochs, st.caught_up_epochs,
                   ss.appended_records, ss.appended_bytes, ss.drains,
                   ss.fsyncs, store->segment_count());
    }
    if (gateway != nullptr) {
      const client::Gateway::Stats& gs = gateway->stats();
      const client::MempoolStats& ms = gateway->mempool().stats();
      std::fprintf(stderr,
                   "dlnoded[%d]: ingress: submits=%" PRIu64
                   " admitted=%" PRIu64 " committed=%" PRIu64
                   " dup=%" PRIu64 " full=%" PRIu64 " notified=%" PRIu64 "\n",
                   flags.id, gs.submits.load(), ms.admitted.load(),
                   ms.committed.load(), ms.dropped_duplicate.load(),
                   ms.dropped_full.load(), gs.commits_notified.load());
    }
  }
  return timed_out ? 1 : 0;
}

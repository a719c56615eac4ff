// lb_client — the benchmark's open-loop load generator and client-side
// checker for a running dlnoded cluster.
//
// It speaks only the client wire protocol (client::DlClient), one
// connection per replica, spread over --threads event loops. Arrivals are a
// Poisson stream per connection whose absolute due times are drawn from
// --seed before the run starts; a send that fires late is still timed from
// its due time, and the lateness is reported as the generator's lag. The
// load starts at --load-at seconds after --spawn-t (the cluster's spawn
// instant on CLOCK_MONOTONIC), runs --warmup + --window seconds, and the
// client then waits up to --drain seconds for every commit.
//
// Commit latency percentiles are taken over every transaction due in the
// window. The same percentiles per --subwindow slice (by due time), and
// their median over the slices, are reported beside them, to show whether
// a tail comes from one stall or from the whole window.
//
// Before the load, each connection submits one probe transaction as soon as
// it is dialed; the first probe commit gives setup_s (spawn → first commit).
// With --probe the client stops after the probes.
//
// Checks (each failure is counted and reported): every transaction is
// committed exactly once and before the deadline, no commit arrives for an
// unknown seq, admission never answers Full/TooLarge/Duplicate (payloads are
// unique), and each connection's commit epochs never decrease.
//
// The result is a flat JSON object written to --out. With --trace FILE the
// first transactions due in the window are also written as chrome-trace
// spans (due -> commit, id = connection and seq) on CLOCK_MONOTONIC, the
// clock the traced replica's spans use.
#include <pthread.h>

#include <atomic>
#include <cmath>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "client/dl_client.hpp"
#include "common/rng.hpp"
#include "lb_util.hpp"
#include "net/cluster_config.hpp"
#include "net/event_loop.hpp"

namespace {

using namespace dl;

struct Flags {
  std::string config, out, trace;
  std::vector<int> pids;
  double spawn_t = 0;
  std::size_t tx_bytes = 200;
  double rate = 1000;  // tx/s, all connections together
  std::uint64_t seed = 1;
  double load_at = 1.0, warmup = 2.0, window = 10.0, drain = 20.0, subwindow = 2.0;
  int threads = 2;
  bool probe = false;
};

struct Tx {
  double due = 0;     // loop clock
  double submit = -1;
  double ack = -1;
  double commit = -1;
  std::uint32_t conn = 0;
  std::uint32_t seq = 0;
  std::uint64_t epoch = 0;
  std::uint8_t commits = 0;
  net::TxStatus status = net::TxStatus::Accepted;
  bool probe = false;
  net::StageLatencies st;
};

struct Conn {
  std::unique_ptr<client::DlClient> cli;
  std::vector<std::uint32_t> tx_of_seq{0};  // seq -> index into Worker::txs
  std::uint64_t last_epoch = 0;
  std::uint64_t epoch_violations = 0;
  std::uint64_t unknown_commits = 0;
};

struct Worker {
  std::vector<int> conn_ids;
  std::vector<Conn> conns;
  std::vector<Tx> txs;  // sorted by due time (probes first)
  std::size_t next = 0;
  std::size_t done = 0;  // committed or terminally rejected
  pthread_t thread{};
  double off = 0;  // CLOCK_MONOTONIC = loop clock + off
};

std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::size_t b = 0;
  while (b <= s.size()) {
    const auto e = s.find(sep, b);
    out.push_back(s.substr(b, e == std::string::npos ? std::string::npos : e - b));
    if (e == std::string::npos) break;
    b = e + 1;
  }
  return out;
}

bool parse(int argc, char** argv, Flags& f) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--probe") {
      f.probe = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const char* v = argv[++i];
    if (a == "--config") f.config = v;
    else if (a == "--out") f.out = v;
    else if (a == "--pids") for (const auto& p : split(v, ',')) f.pids.push_back(std::atoi(p.c_str()));
    else if (a == "--spawn-t") f.spawn_t = std::atof(v);
    else if (a == "--tx-bytes") f.tx_bytes = static_cast<std::size_t>(std::atoll(v));
    else if (a == "--rate") f.rate = std::atof(v);
    else if (a == "--seed") f.seed = static_cast<std::uint64_t>(std::atoll(v));
    else if (a == "--load-at") f.load_at = std::atof(v);
    else if (a == "--warmup") f.warmup = std::atof(v);
    else if (a == "--window") f.window = std::atof(v);
    else if (a == "--drain") f.drain = std::atof(v);
    else if (a == "--subwindow") f.subwindow = std::atof(v);
    else if (a == "--threads") f.threads = std::atoi(v);
    else if (a == "--trace") f.trace = v;
    else return false;
  }
  return !f.config.empty() && !f.out.empty() && f.tx_bytes >= 24 && f.rate > 0 &&
         f.threads >= 1 && f.subwindow > 0;
}

// Chrome-trace spans for the first kTraceTxs committed transactions due in
// [win_t0, win_t1), one track per connection.
bool write_trace(const std::string& path, const std::vector<Worker>& workers, double off,
                 double win_t0, double win_t1) {
  constexpr std::size_t kTraceTxs = 20'000;
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"traceEvents\":[");
  std::size_t n = 0;
  for (const Worker& w : workers) {
    for (const Tx& tx : w.txs) {
      const double due = tx.due + off;
      if (tx.probe || tx.commits == 0 || due < win_t0 || due >= win_t1) continue;
      if (n == kTraceTxs) break;
      const int conn = w.conn_ids[tx.conn];
      std::fprintf(f,
                   "%s\n{\"name\":\"client.tx\",\"ph\":\"X\",\"pid\":100,\"tid\":%d,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"conn\":%d,\"seq\":%u,"
                   "\"epoch\":%llu,\"lag_us\":%.3f,\"ack_us\":%.3f}}",
                   n == 0 ? "" : ",", conn, due * 1e6, (tx.commit - tx.due) * 1e6, conn, tx.seq,
                   static_cast<unsigned long long>(tx.epoch), (tx.submit - tx.due) * 1e6,
                   tx.ack >= 0 ? (tx.ack - tx.submit) * 1e6 : -1.0);
      ++n;
    }
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace

int main(int argc, char** argv) {
  Flags fl;
  if (!parse(argc, argv, fl)) {
    std::fprintf(stderr,
                 "usage: lb_client --config F --out F --spawn-t T [--pids a,b,..] "
                 "[--tx-bytes B] [--rate TPS] [--seed S] [--load-at S] [--warmup S] "
                 "[--window S] [--subwindow S] [--drain S] [--threads K] [--probe]\n");
    return 2;
  }
  std::string err;
  auto cluster = net::ClusterConfig::load(fl.config, &err);
  if (!cluster.has_value()) {
    std::fprintf(stderr, "lb_client: bad config: %s\n", err.c_str());
    return 2;
  }
  const int n = cluster->n;
  const int threads = std::min(fl.threads, n);

  // The whole arrival schedule, on CLOCK_MONOTONIC, fixed before any send.
  const double load_t0 = fl.spawn_t + fl.load_at;
  const double win_t0 = load_t0 + fl.warmup;
  const double win_t1 = win_t0 + fl.window;
  std::vector<Worker> workers(static_cast<std::size_t>(threads));
  for (int c = 0; c < n; ++c) workers[static_cast<std::size_t>(c % threads)].conn_ids.push_back(c);
  for (Worker& w : workers) {
    for (std::size_t k = 0; k < w.conn_ids.size(); ++k) {
      Tx probe;
      probe.conn = static_cast<std::uint32_t>(k);
      probe.probe = true;
      probe.due = 0;  // as soon as the loop runs
      w.txs.push_back(probe);
    }
    if (fl.probe) continue;
    for (std::size_t k = 0; k < w.conn_ids.size(); ++k) {
      Rng rng(fl.seed * 0x9E3779B97F4A7C15ULL + 0xB3Cull * static_cast<std::uint64_t>(w.conn_ids[k] + 1));
      double t = load_t0;
      for (;;) {
        t += rng.next_exponential(fl.rate / n);
        if (t >= win_t1) break;
        Tx tx;
        tx.due = t;
        tx.conn = static_cast<std::uint32_t>(k);
        w.txs.push_back(tx);
      }
    }
    std::stable_sort(w.txs.begin() + static_cast<std::ptrdiff_t>(w.conn_ids.size()), w.txs.end(),
                     [](const Tx& a, const Tx& b) { return a.due < b.due; });
  }

  // Payload filler: one random pool; each payload is a distinct window of it
  // stamped with a unique (seed, connection, index) header.
  const Bytes pool = random_bytes(fl.tx_bytes + 4096, fl.seed ^ 0x5EEDF00Dull);

  // Window sampling (worker 0 at win_t0 / win_t1).
  std::atomic<int> ready{0};
  std::vector<double> cpu0(fl.pids.size()), cpu1(fl.pids.size());
  std::vector<double> tcpu0(workers.size()), tcpu1(workers.size());
  const double deadline = fl.probe ? fl.spawn_t + 30 : win_t1 + fl.drain;

  auto sample = [&](std::vector<double>& cpu, std::vector<double>& tcpu) {
    for (std::size_t i = 0; i < fl.pids.size(); ++i) cpu[i] = lb::proc_cpu_seconds(fl.pids[i]);
    for (std::size_t i = 0; i < workers.size(); ++i) {
      tcpu[i] = lb::clock_seconds(lb::thread_clock(workers[i].thread));
    }
  };

  auto run_worker = [&](std::size_t wi) {
    Worker& w = workers[wi];
    net::EventLoop loop;
    w.thread = pthread_self();
    ready.fetch_add(1);
    const double off = w.off = lb::mono_now() - loop.now();
    for (Tx& tx : w.txs) tx.due = tx.probe ? loop.now() : tx.due - off;
    w.conns.resize(w.conn_ids.size());
    for (std::size_t k = 0; k < w.conn_ids.size(); ++k) {
      const net::NodeAddr& a = cluster->nodes[static_cast<std::size_t>(w.conn_ids[k])];
      client::DlClient::Options o;
      o.nonce = (fl.seed << 20) ^ (static_cast<std::uint64_t>(getpid()) << 36) ^
                (0xC0FFEEull + static_cast<std::uint64_t>(w.conn_ids[k]));
      o.reconnect_min = 0.005;
      o.reconnect_max = 0.1;
      Conn& c = w.conns[k];
      c.cli = std::make_unique<client::DlClient>(loop, a.host, a.client_port, o);
      c.cli->set_ack_callback([&w, &c, &loop](std::uint64_t seq, net::TxStatus st) {
        if (seq >= c.tx_of_seq.size()) return;
        Tx& tx = w.txs[c.tx_of_seq[seq]];
        if (tx.ack < 0) tx.ack = loop.now();
        if (st != net::TxStatus::Accepted) tx.status = st;
        if (st == net::TxStatus::Full || st == net::TxStatus::TooLarge) ++w.done;
      });
      c.cli->set_commit_callback([&w, &c, &loop](std::uint64_t seq, std::uint64_t epoch,
                                                 std::uint32_t, double,
                                                 const net::StageLatencies& st) {
        if (seq >= c.tx_of_seq.size()) {
          ++c.unknown_commits;
          return;
        }
        Tx& tx = w.txs[c.tx_of_seq[seq]];
        if (tx.commits++ == 0) {
          tx.commit = loop.now();
          tx.epoch = epoch;
          tx.st = st;
          ++w.done;
        }
        if (epoch < c.last_epoch) ++c.epoch_violations;
        c.last_epoch = epoch;
      });
      c.cli->start();
    }

    std::function<void()> fire = [&] {
      const double now = loop.now();
      while (w.next < w.txs.size() && w.txs[w.next].due <= now + 20e-6) {
        Tx& tx = w.txs[w.next];
        Conn& c = w.conns[tx.conn];
        const std::uint64_t idx = c.tx_of_seq.size();
        const std::size_t shift = (idx * 131) % 4096;
        Bytes payload(pool.begin() + static_cast<std::ptrdiff_t>(shift),
                      pool.begin() + static_cast<std::ptrdiff_t>(shift + fl.tx_bytes));
        const std::uint64_t hdr[3] = {fl.seed, static_cast<std::uint64_t>(w.conn_ids[tx.conn]),
                                      idx};
        std::memcpy(payload.data(), hdr, sizeof hdr);
        tx.submit = loop.now();
        const std::uint64_t seq = c.cli->submit(std::move(payload));
        if (seq != c.tx_of_seq.size()) std::fprintf(stderr, "lb_client: unexpected seq\n");
        tx.seq = static_cast<std::uint32_t>(seq);
        c.tx_of_seq.push_back(static_cast<std::uint32_t>(w.next));
        ++w.next;
      }
      if (w.next < w.txs.size()) loop.at(w.txs[w.next].due, fire);
    };
    loop.at(loop.now(), fire);

    if (wi == 0 && !fl.probe) {
      while (ready.load() < static_cast<int>(workers.size())) std::this_thread::yield();
      loop.at(win_t0 - off, [&] { sample(cpu0, tcpu0); });
      loop.at(win_t1 - off, [&] { sample(cpu1, tcpu1); });
    }
    // Stop once every tx is settled and the window has been sampled (the
    // sample reads every worker's CPU clock), or at the deadline.
    std::function<void()> check = [&] {
      const bool settled = w.next == w.txs.size() && w.done >= w.txs.size();
      if ((settled && (fl.probe || loop.now() + off > win_t1 + 0.05)) ||
          loop.now() + off > deadline) {
        loop.stop();
        return;
      }
      loop.after(0.005, check);
    };
    loop.after(0.005, check);
    loop.run();
    for (Conn& c : w.conns) c.cli->close();
  };

  std::vector<std::thread> ts;
  for (std::size_t i = 0; i < workers.size(); ++i) ts.emplace_back(run_worker, i);
  for (auto& t : ts) t.join();

  // --- aggregate ------------------------------------------------------------
  const double off = workers[0].off;  // loop clocks share one process epoch
  std::uint64_t attempted = 0, committed = 0, missing = 0, dup_commits = 0;
  std::uint64_t rejected = 0, dup_acks = 0, epoch_violations = 0, unknown = 0;
  const auto slices = static_cast<std::size_t>(std::max(1.0, std::round(fl.window / fl.subwindow)));
  std::vector<std::vector<double>> slice_ms(slices);
  std::vector<double> lat_ms, lag_ms, ack_ms, stage[5];
  double first_commit = 1e18;
  std::uint64_t win_commits = 0;
  for (Worker& w : workers) {
    for (Conn& c : w.conns) {
      epoch_violations += c.epoch_violations;
      unknown += c.unknown_commits;
    }
    for (const Tx& tx : w.txs) {
      if (tx.submit < 0) continue;  // never due before the deadline
      ++attempted;
      if (tx.status == net::TxStatus::Full || tx.status == net::TxStatus::TooLarge) ++rejected;
      if (tx.status == net::TxStatus::Duplicate) ++dup_acks;
      if (tx.commits == 0) ++missing;
      if (tx.commits > 1) ++dup_commits;
      if (tx.commits >= 1) {
        ++committed;
        const double cm = tx.commit + off;
        if (tx.probe) first_commit = std::min(first_commit, cm);
        if (cm >= win_t0 && cm < win_t1) ++win_commits;
      }
      const double due = tx.due + off;
      if (tx.probe || due < win_t0 || due >= win_t1) continue;
      lag_ms.push_back((tx.submit - tx.due) * 1e3);
      if (tx.ack >= 0) ack_ms.push_back((tx.ack - tx.submit) * 1e3);
      // A transaction that never committed counts as waiting until the
      // deadline, so failures raise the percentiles instead of vanishing.
      lat_ms.push_back(((tx.commits > 0 ? tx.commit + off : deadline) - due) * 1e3);
      const auto si = static_cast<std::size_t>((due - win_t0) / fl.window * static_cast<double>(slices));
      slice_ms[std::min(si, slices - 1)].push_back(lat_ms.back());
      if (tx.commits == 0) continue;
      const std::uint32_t us[5] = {tx.st.ingress_us, tx.st.disperse_us, tx.st.ba_us,
                                   tx.st.retrieve_us, tx.st.notify_us};
      for (int k = 0; k < 5; ++k) stage[k].push_back(us[k] / 1e3);
    }
  }

  lb::Result r;
  r.set("attempted", static_cast<double>(attempted));
  r.set("committed", static_cast<double>(committed));
  r.set("missing", static_cast<double>(missing));
  r.set("duplicate_commits", static_cast<double>(dup_commits));
  r.set("unknown_commits", static_cast<double>(unknown));
  r.set("rejected", static_cast<double>(rejected));
  r.set("duplicate_acks", static_cast<double>(dup_acks));
  r.set("epoch_violations", static_cast<double>(epoch_violations));
  r.set("setup_s", first_commit < 1e17 ? first_commit - fl.spawn_t : -1);
  if (!fl.probe) {
    double rcpu = 0, rmax = 0, rss = 0;
    for (std::size_t i = 0; i < fl.pids.size(); ++i) {
      const double d = cpu1[i] - cpu0[i];
      rcpu += d;
      rmax = std::max(rmax, d / fl.window);
      rss = std::max(rss, lb::proc_vmhwm_mb(fl.pids[i]));
    }
    double cmax = 0;
    for (std::size_t i = 0; i < workers.size(); ++i) {
      cmax = std::max(cmax, (tcpu1[i] - tcpu0[i]) / fl.window);
    }
    std::vector<double> p50s, p99s;
    std::fprintf(stderr, "lb_client: slice p50/p99 ms:");
    for (const auto& sl : slice_ms) {
      p50s.push_back(lb::quantile(sl, 0.5));
      p99s.push_back(lb::quantile(sl, 0.99));
      std::fprintf(stderr, " %.1f/%.1f", p50s.back(), p99s.back());
    }
    std::fprintf(stderr, "\n");
    r.set("samples", static_cast<double>(lat_ms.size()));
    r.set("slices", static_cast<double>(slices));
    r.set("commit_p50_ms", lb::quantile(lat_ms, 0.5));
    r.set("commit_p99_ms", lb::quantile(lat_ms, 0.99));
    r.set("commit_p50_slices_ms", lb::quantile(p50s, 0.5));
    r.set("commit_p99_slices_ms", lb::quantile(p99s, 0.5));
    r.set("committed_tps", static_cast<double>(win_commits) / fl.window);
    r.set("replica_cpu_us_per_tx",
          win_commits > 0 ? rcpu * 1e6 / static_cast<double>(win_commits) : 0);
    r.set("replica_cpu_util_max", rmax);
    r.set("peak_rss_mb", rss);
    r.set("gen_lag_p99_ms", lb::quantile(lag_ms, 0.99));
    r.set("client_cpu_util", cmax);
    r.set("ack_p50_ms", lb::quantile(ack_ms, 0.5));
    r.set("mempool_drop_ratio",
          attempted > 0 ? static_cast<double>(rejected + dup_acks) / attempted : 0);
    const char* names[5] = {"ingress", "disperse", "ba", "retrieve", "notify"};
    for (int k = 0; k < 5; ++k) {
      r.set(std::string("stage_") + names[k] + "_p50_ms", lb::quantile(stage[k], 0.5));
    }
    r.set("stage_retrieve_p99_ms", lb::quantile(stage[3], 0.99));
  }
  if (!fl.trace.empty() && !write_trace(fl.trace, workers, off, win_t0, win_t1)) {
    std::fprintf(stderr, "lb_client: cannot write %s\n", fl.trace.c_str());
    return 1;
  }
  if (!r.write(fl.out)) {
    std::fprintf(stderr, "lb_client: cannot write %s\n", fl.out.c_str());
    return 1;
  }
  return 0;
}

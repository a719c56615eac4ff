// lb_sim — the simulator's layers for the benchmark: one Figure 10 point
// (DispersedLedger, n = 16, geo16 topology at x0.15 bandwidth, 40 KB/s
// offered per node, 250 B transactions, 30 virtual seconds of which 10 are
// warm-up) on the discrete-event simulator, single-threaded.
//
//   --digest        runs the spec through runner::run_experiment and prints
//                   the SHA-256 of its dl-sweep-v1 JSON (run.py compares it
//                   with a recorded digest: the correctness check).
//   --out F --trace T
//                   runs the scenario with a TracingEnv/TracingReceiver pair
//                   around every node's SimEnv, writes chrome-trace JSON to
//                   T and the sim.* wall-clock split and wall time to F as
//                   flat JSON. The runner has no hook for wrapping an Env, so this
//                   path repeats run_experiment's scenario loop.
//   --kernels       prints the active GF(2^8) and SHA-256 kernels and stops.
#include <memory>
#include <string>
#include <vector>

#include "crypto/sha256.hpp"
#include "dl/node.hpp"
#include "erasure/gf256_dispatch.hpp"
#include "lb_util.hpp"
#include "runner/experiment.hpp"
#include "runner/report.hpp"
#include "runner/scenario.hpp"
#include "runtime/sim_env.hpp"
#include "sim/simulator.hpp"
#include "tracing.hpp"
#include "workload/txgen.hpp"

namespace {

using namespace dl;

runner::ScenarioSpec geo16_spec(std::uint64_t seed) {
  runner::ScenarioSpec s;
  s.family = "sim_geo16";
  s.protocol = runner::Protocol::DL;
  s.n = 16;
  s.topo = runner::TopologySpec::geo16(0.15);
  s.duration = 30.0;
  s.warmup = 10.0;
  s.load_bytes_per_sec = 40e3;
  s.tx_bytes = 250;
  s.max_block_bytes = 300'000;
  s.seed = seed;
  return s;
}

struct Run {
  runner::ExperimentResult result;
  double wall_s = 0;  // first event -> end of run
};

// runner::run_experiment's scenario loop (see src/runner/experiment.cpp),
// with every node's Env and Receiver wrapped by the tracer.
Run run_traced(const runner::ScenarioSpec& spec, lb::Tracer& tracer) {
  Run run;
  const runner::ExperimentConfig cfg = spec.materialize();
  sim::Simulator sim(cfg.net);
  double t_first = 0;
  sim.queue().at(0, [&] { t_first = lb::mono_now(); });
  runner::ExperimentResult& result = run.result;
  result.nodes.resize(static_cast<std::size_t>(cfg.n));

  std::vector<std::unique_ptr<runtime::SimEnv>> envs;
  std::vector<std::unique_ptr<lb::TracingEnv>> tenvs;
  std::vector<std::unique_ptr<lb::TracingReceiver>> trecv;
  std::vector<std::unique_ptr<core::DlNode>> owners;
  std::vector<core::DlNode*> nodes(static_cast<std::size_t>(cfg.n), nullptr);
  std::vector<std::unique_ptr<workload::PoissonTxGen>> gens;
  for (int i = 0; i < cfg.n; ++i) {
    envs.push_back(std::make_unique<runtime::SimEnv>(sim, i));
    tenvs.push_back(std::make_unique<lb::TracingEnv>(*envs.back(), tracer));
    auto node = std::make_unique<core::DlNode>(runner::make_node_config(cfg, i), *tenvs.back());
    trecv.push_back(std::make_unique<lb::TracingReceiver>(*node, tracer));
    envs.back()->attach(*trecv.back());
    core::DlNode* raw = node.get();
    nodes[static_cast<std::size_t>(i)] = raw;
    runner::NodeResult* res = &result.nodes[static_cast<std::size_t>(i)];
    const int self = i;
    lb::Tracer* tr = &tracer;
    raw->set_delivery_callback([res, self, tr](std::uint64_t, core::BlockKey,
                                               const core::Block& b, double now) {
      lb::Tracer::Scope s(tr, "deliver");
      for (const auto& tx : b.txs) {
        const double lat = now - tx.submit_time;
        res->latency_all.add(lat);
        if (tx.origin == static_cast<std::uint32_t>(self)) res->latency_local.add(lat);
      }
    });
    owners.push_back(std::move(node));
    workload::TxGenParams tp;
    tp.rate_bytes_per_sec = cfg.load_bytes_per_sec;
    tp.tx_bytes = cfg.tx_bytes;
    tp.seed = cfg.seed * 1000 + static_cast<std::uint64_t>(i);
    tp.stop_time = cfg.duration;
    tp.burst_period = cfg.burst_period;
    tp.burst_duty = cfg.burst_duty;
    gens.push_back(std::make_unique<workload::PoissonTxGen>(
        tp, sim.queue(), [raw](Bytes payload) { raw->submit(std::move(payload)); }));
    sim.queue().at(0, [g = gens.back().get()] { g->start(); });
  }
  const int samples = static_cast<int>(cfg.duration / cfg.sample_interval) + 1;
  for (int s = 0; s <= samples; ++s) {
    const double t = s * cfg.sample_interval;
    if (t > cfg.duration) break;
    sim.queue().at(t, [&result, &nodes, t] {
      for (std::size_t i = 0; i < nodes.size(); ++i) {
        result.nodes[i].confirmed.sample(
            t, static_cast<double>(nodes[i]->stats().delivered_payload_bytes));
      }
    });
  }

  sim.run_until(cfg.duration);
  run.wall_s = lb::mono_now() - t_first;
  return run;
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t seed = 1;
  bool digest = false, kernels = false;
  std::string out, trace_path;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--digest") {
      digest = true;
      continue;
    }
    if (a == "--kernels") {
      kernels = true;
      continue;
    }
    const char* v = i + 1 < argc ? argv[++i] : "";
    if (a == "--seed") seed = static_cast<std::uint64_t>(std::atoll(v));
    else if (a == "--out") out = v;
    else if (a == "--trace") trace_path = v;
    else {
      std::fprintf(stderr, "lb_sim: unknown flag %s\n", a.c_str());
      return 2;
    }
  }
  std::printf("kernels gf256=%s sha256=%s\n", gf256::kernel_name(gf256::active_kernel()),
              sha_kernel_name(sha256_active_kernel()));
  if (kernels) return 0;
  const auto spec = geo16_spec(seed);
  if (digest) {
    const runner::ExperimentResult result = runner::run_experiment(spec.materialize());
    const std::string json =
        runner::json_string("sim_geo16", {runner::ScenarioResult{spec, result}});
    std::printf("digest %s\n", sha256(ByteView(reinterpret_cast<const std::uint8_t*>(json.data()),
                                               json.size())).hex().c_str());
    return 0;
  }
  if (out.empty() || trace_path.empty()) {
    std::fprintf(stderr, "usage: lb_sim --seed S (--digest | --out F --trace T | --kernels)\n");
    return 2;
  }

  // Wall-clock split of the scenario: the event core (queue, links, network
  // and the sends into it), the protocol automata, and coding.
  lb::Tracer tracer;
  const Run run = run_traced(spec, tracer);
  if (!tracer.write_chrome(trace_path, 0)) {
    std::fprintf(stderr, "lb_sim: cannot write %s\n", trace_path.c_str());
  }
  tracer.print_table("lb_sim");
  auto self = [&](const char* prefix) { return tracer.sum(prefix).self_s; };
  const double coding = self("offload.disperse") + self("offload.decode") + self("offload.other");
  const double sends = tracer.sum("send").total_s + tracer.sum("broadcast").total_s;
  lb::Result r;
  r.set("wall_s", run.wall_s);
  r.set("sim.core_self_s", run.wall_s - tracer.top_level_s() + sends);
  r.set("sim.dl_self_s", tracer.top_level_s() - coding - sends);
  r.set("sim.coding_s", coding);
  r.set("sim.msgs_per_s", lb::per(tracer.sum("recv.").count, run.wall_s));
  if (!r.write(out)) return 1;
  return 0;
}

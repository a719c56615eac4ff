#!/usr/bin/env python3
"""ledgerbench: the ledger's end-to-end and per-layer benchmark.

Run from the root of a checkout:

    python3 ledgerbench/run.py --workload small_tx --seed 1 --seconds 30 --trace 0

Workloads (see README.md for why each exists):

  small_tx   4 dlnoded replicas on loopback, 200 B transactions offered
             open-loop at 30k tx/s, in-memory, unshaped.
  wan_bulk   4 dlnoded replicas, 16 KiB transactions at 8 MB/s; each
             replica's egress follows a 1 s step schedule 80/40/20/40 MB/s,
             shifted by one step per replica, 10 ms delay; durable store
             with batched fsync.

The simulator's workload (one Figure 10 point, sim_geo16) is not a workload
of its own: its CPU-bound costs drift with the state of a shared host by
more than any allowed bound (see README.md). small_tx's traced run measures
the simulator's layers on one scenario and checks its output digest.

The program is built from source first (CMake package in this directory;
build tree under $CARGO_TARGET_DIR, default .bench_build). With --trace 0
the last stdout line is the end-to-end result; with --trace 1 replica 0 runs
behind the span tracer and the last line holds the per-layer metrics. A
chrome trace lands in <build>/traces/.

Every run checks its outputs: each submitted transaction committed exactly
once, per-connection commit epochs monotone, admission never refused,
identical ledger prefixes on all replicas, and (small_tx traced) a
recorded digest of the simulator's sweep JSON.

`--compare A.json B.json` prints metric deltas between two saved results
(<build>/results/), refusing if their host/build descriptors differ.
"""

import argparse
import hashlib
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
N = 4  # replicas in the cluster workloads (f = 1)
SETUP_BOOTS = 4  # probe-only boots before the measured one; setup_s is their median
SIM_DIGEST_SEED = 10
# SHA-256 of the simulator's sim_geo16 dl-sweep-v1 JSON at SIM_DIGEST_SEED.
SIM_DIGEST = "7445c470a54520a33a703c4746f7c1ae164081308fe12bbf6fc7b0464d071d7a"

WORKLOADS = {
    "small_tx": dict(tx_bytes=200, rate=30000.0, warmup=2.0, store=False,
                     shaped=False, max_block=262144),
    "wan_bulk": dict(tx_bytes=16384, rate=8e6 / 16384, warmup=3.0, store=True,
                     shaped=True, max_block=1048576),
}
# wan_bulk egress schedule: bytes/s per 1 s step, replica i shifted by i.
WAN_STEPS = [80_000_000, 40_000_000, 20_000_000, 40_000_000]
WAN_STEP_S = 1.0
LOAD_AT = 1.0  # load starts this long after spawn (aligned to a WAN step)

# Metric names and units; BENCHMARK.json lists the same.
END_TO_END = {"commit_p50_ms": "ms", "commit_p99_ms": "ms", "committed_tps": "1/s",
              "replica_cpu_us_per_tx": "us", "peak_rss_mb": "MB", "setup_s": "s"}
PER_LAYER = {
    "client.gen_lag_p99_ms": "ms", "client.cpu_util": "ratio", "client.ack_p50_ms": "ms",
    "mempool.drop_ratio": "ratio",
    "dl.stage_ingress_p50_ms": "ms", "dl.stage_disperse_p50_ms": "ms",
    "dl.stage_ba_p50_ms": "ms", "dl.stage_retrieve_p50_ms": "ms",
    "dl.stage_notify_p50_ms": "ms", "dl.stage_retrieve_p99_ms": "ms",
    "replica.cpu_util_max": "ratio",
    "dl.receive_self_us_per_tx": "us", "dl.timer_self_us_per_tx": "us",
    "dl.deliver_us_per_tx": "us", "dl.tx_per_block": "count", "dl.epochs_per_s": "1/s",
    "dl.own_blocks_dropped_ratio": "ratio", "dl.retrieve_chunk_waste": "ratio",
    "ba.msgs_per_epoch": "count", "ba.self_us_per_epoch": "us",
    "vid.disperse_us_per_mb": "us/MB", "vid.decode_verify_us_per_mb": "us/MB",
    "vid.chunk_rx_us": "us",
    "net.wire_bytes_per_payload_byte": "ratio", "net.frames_per_tx": "count",
    "net.send_us_per_frame": "us", "net.wakes_per_tx": "count", "net.tasks_per_tx": "count",
    "net.loop_busy_ratio": "ratio", "net.loop_residual_us_per_tx": "us",
    "net.bufpool_fresh_ratio": "ratio", "net.peer_queued_bytes_p99": "bytes",
    "net.shaper_waits_per_s": "1/s",
    "storage.drain_us_p99": "us", "storage.fsyncs_per_block": "count",
    "storage.bytes_per_payload_byte": "ratio",
    "sim.core_self_s": "s", "sim.dl_self_s": "s", "sim.coding_s": "s", "sim.msgs_per_s": "1/s",
    "trace.commit_p50_ms": "ms", "trace.commit_p99_ms": "ms",
    "trace.replica_cpu_us_per_tx": "us",
}


def log(*a):
    print(*a, file=sys.stderr, flush=True)


def fail(msg, code=1):
    log("ledgerbench: " + msg)
    sys.exit(code)


# --- build -------------------------------------------------------------------

def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build(bdir):
    if not os.path.isfile(os.path.join("src", "dl", "node.hpp")):
        fail("run from the root of a checkout: ledger sources (src/) not found", 2)
    tree = os.path.join(bdir, "ledgerbench")
    gen = ["-G", "Ninja"] if shutil.which("ninja") else []
    cfg = ["cmake", "-S", HERE, "-B", tree, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"] + gen
    jobs = str(max(1, min(os.cpu_count() or 1, 8)))
    for cmd in (cfg, ["cmake", "--build", tree, "-j", jobs]):
        p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        if p.returncode != 0:
            log(p.stdout[-4000:])
            fail("build failed: " + " ".join(cmd))
    return tree


def descriptor(tree):
    """Host and build identity; results with different descriptors are not
    comparable."""
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    cache = {}
    with open(os.path.join(tree, "CMakeCache.txt")) as f:
        for line in f:
            if "=" in line and ":" in line.split("=", 1)[0]:
                k, v = line.rstrip("\n").split("=", 1)
                cache[k.split(":", 1)[0]] = v
    cxx = cache.get("CMAKE_CXX_COMPILER", "c++")
    try:
        compiler = subprocess.run([cxx, "--version"], stdout=subprocess.PIPE,
                                  text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        compiler = cxx
    kernels = subprocess.run([os.path.join(tree, "lb_sim"), "--kernels"],
                             stdout=subprocess.PIPE, text=True).stdout.split()
    src = hashlib.sha256()
    for top in ("src", HERE):
        for dirpath, dirnames, files in sorted(os.walk(top)):
            dirnames.sort()
            for name in sorted(files):
                if name.endswith((".cpp", ".hpp", ".py", ".txt")):
                    with open(os.path.join(dirpath, name), "rb") as f:
                        src.update(name.encode() + f.read())
    git = "none"
    if os.path.isdir(".git"):
        p = subprocess.run(["git", "rev-parse", "HEAD"], stdout=subprocess.PIPE,
                           stderr=subprocess.DEVNULL, text=True)
        git = p.stdout.strip() or "none"
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "compiler": compiler,
        "build_type": cache.get("CMAKE_BUILD_TYPE", ""),
        "kernels": " ".join(kernels[1:]) if kernels[:1] == ["kernels"] else "unknown",
        "DL_FORCE_SCALAR": os.environ.get("DL_FORCE_SCALAR", ""),
        "git_sha": git,
        "source_sha256": src.hexdigest()[:16],
    }


# --- cluster -----------------------------------------------------------------

class Cluster:
    """Four replicas on loopback. Replica 0 may be the traced lb_replica."""

    def __init__(self, tree, work, wl, rng, traced, window, trace_path):
        self.tree, self.work, self.wl, self.traced = tree, work, wl, traced
        self.window, self.trace_path = window, trace_path
        self.procs = []
        # Below Linux's default ephemeral range (32768-60999): a port in it can
        # be taken by an outgoing connection, even one dialing that port.
        base = rng.randrange(10000, 32768 - 2 * N)
        self.config = os.path.join(work, "cluster.toml")
        lines = [f"[cluster]\nn = {N}\n"]
        for i in range(N):
            lines.append(f'[[node]]\nid = {i}\nhost = "127.0.0.1"\n'
                         f"port = {base + i}\nclient_port = {base + N + i}\n")
        if wl["shaped"]:
            # The last step holds forever, so write enough periods for any run.
            periods = 60
            for i in range(N):
                steps = [WAN_STEPS[(k + i) % len(WAN_STEPS)]
                         for k in range(len(WAN_STEPS) * periods)]
                lines.append(f'[[link]]\nfrom = {i}\nschedule = "{",".join(map(str, steps))}"\n'
                             f"step_ms = {int(WAN_STEP_S * 1000)}\ndelay_ms = 10\n")
        with open(self.config, "w") as f:
            f.write("\n".join(lines))

    def start(self, tag):
        self.ledgers = [os.path.join(self.work, f"ledger_{tag}_{i}.log") for i in range(N)]
        self.spawn_t = time.monotonic()
        for i in range(N):
            extra = []
            if self.wl["store"]:
                store = os.path.join(self.work, f"store_{tag}_{i}")
                extra += ["--store", store, "--fsync", "batch"]
            if self.traced and i == 0:
                cmd = [os.path.join(self.tree, "lb_replica"), "--config", self.config,
                       "--id", "0", "--ledger", self.ledgers[i],
                       "--max-block-bytes", str(self.wl["max_block"]),
                       "--window", "%.6f,%.6f" % (self.spawn_t + self.window[0],
                                                  self.spawn_t + self.window[1]),
                       "--out", os.path.join(self.work, "replica0.json"),
                       "--trace", self.trace_path, "--max-seconds", "170"] + extra
            else:
                cmd = [os.path.join(self.tree, "dlnoded"), "--config", self.config,
                       "--id", str(i), "--target-epochs", "0", "--ledger", self.ledgers[i],
                       "--loops", "1", "--workers", "0", "--net-loops", "1",
                       "--max-block-bytes", str(self.wl["max_block"]),
                       "--max-seconds", "170", "--quiet"] + extra
            with open(os.path.join(self.work, f"replica_{tag}_{i}.log"), "w") as lf:
                self.procs.append(subprocess.Popen(cmd, stdout=lf, stderr=subprocess.STDOUT))
        return [p.pid for p in self.procs]

    def exited_early(self):
        return [p.returncode for p in self.procs if p.poll() is not None]

    def stop(self):
        """SIGTERM (graceful: ledgers flushed), then wait; SIGKILL stragglers.
        Returns the exit codes."""
        for p in self.procs:
            if p.poll() is None:
                p.send_signal(signal.SIGTERM)
        codes = []
        for p in self.procs:
            try:
                codes.append(p.wait(timeout=15))
            except subprocess.TimeoutExpired:
                p.kill()
                codes.append(p.wait())
        self.procs = []
        return codes

    def ledger_prefixes_agree(self):
        """All replicas' ledgers agree on their common prefix, which must be
        non-empty."""
        contents = []
        for path in self.ledgers:
            with open(path) as f:
                contents.append(f.read().splitlines())
        common = min(len(c) for c in contents)
        if common == 0:
            return False
        return all(c[:common] == contents[0][:common] for c in contents)


class BootCollision(Exception):
    pass


def run_client(tree, cluster, pids, args, out):
    """Runs lb_client while watching the replicas; a replica that exits
    during the run aborts it (exit 3 = bind collision: retry on new ports)."""
    cmd = [os.path.join(tree, "lb_client"), "--config", cluster.config, "--out", out,
           "--spawn-t", "%.6f" % cluster.spawn_t, "--pids", ",".join(map(str, pids))] + args
    client = subprocess.Popen(cmd, stdout=sys.stderr, stderr=sys.stderr)
    try:
        while client.poll() is None:
            codes = cluster.exited_early()
            if codes:
                client.kill()
                client.wait()
                if 3 in codes:
                    raise BootCollision()
                raise RuntimeError(f"replica exited during the run: {codes}")
            time.sleep(0.02)
    finally:
        if client.poll() is None:
            client.kill()
            client.wait()
    if client.returncode != 0:
        raise RuntimeError(f"lb_client exited {client.returncode}")
    with open(out) as f:
        return json.load(f)


def boot_and_run(tree, work, wl, seed, window, subwindow, traced, trace_path):
    """SETUP_BOOTS probe-only boots (setup times), then one boot with the
    load. Returns the load client's result, the checks and the setup times."""
    win0 = LOAD_AT + wl["warmup"]
    port_rng = random.Random()  # ports are not inputs; keep them fresh
    checks = {}
    setups = []
    res = None
    boots = 0
    for attempt in range(SETUP_BOOTS + 9):
        last = boots == SETUP_BOOTS
        cluster = Cluster(tree, work, wl, port_rng, traced and last,
                          (win0, win0 + window), trace_path)
        # Every attempt gets its own stores, ledgers and logs: a retried boot
        # must start as fresh as the first, not recover what an aborted one
        # wrote.
        tag = f"a{attempt}"
        try:
            pids = cluster.start(tag)
            out = os.path.join(work, f"client_{tag}.json")
            if last:
                args = ["--tx-bytes", str(wl["tx_bytes"]), "--rate", repr(wl["rate"]),
                        "--seed", str(seed), "--load-at", repr(LOAD_AT),
                        "--warmup", repr(wl["warmup"]), "--window", repr(window),
                        "--subwindow", repr(subwindow),
                        "--drain", "20", "--threads", str(min(2, os.cpu_count() or 1))]
                if traced:
                    args += ["--trace", os.path.join(work, "client_trace.json")]
            else:
                args = ["--seed", str(seed), "--probe"]
            r = run_client(tree, cluster, pids, args, out)
        except BootCollision:
            cluster.stop()
            log("ledgerbench: port collision, rebooting on fresh ports")
            continue
        except BaseException:
            cluster.stop()
            raise
        codes = cluster.stop()
        boots += 1
        checks.setdefault("replicas_exit_0", True)
        checks["replicas_exit_0"] &= all(c == 0 for c in codes)
        checks.setdefault("ledger_prefixes_agree", True)
        checks["ledger_prefixes_agree"] &= cluster.ledger_prefixes_agree()
        if last:
            res = r
            break
        if r["setup_s"] > 0:
            setups.append(r["setup_s"])
        # Probe boots must also be clean.
        checks.setdefault("probe_commits", True)
        checks["probe_commits"] &= r["missing"] == 0 and r["attempted"] == N
    if res is None:
        raise RuntimeError("could not boot a cluster (ports busy)")
    checks["every_tx_committed_once"] = (res["missing"] == 0 and res["duplicate_commits"] == 0
                                         and res["unknown_commits"] == 0)
    checks["admission_never_refused"] = res["rejected"] == 0 and res["duplicate_acks"] == 0
    checks["commit_epochs_monotone"] = res["epoch_violations"] == 0
    return res, checks, setups


def cluster_run(tree, work, name, seed, seconds, traced, trace_path):
    wl = WORKLOADS[name]
    if wl["shaped"]:
        # Measure whole periods of the bandwidth schedule, one slice each.
        subwindow = WAN_STEP_S * len(WAN_STEPS)
        window = subwindow * max(1, -(-seconds // subwindow))
    else:
        subwindow = 1.0
        window = float(seconds)
    res, checks, setups = boot_and_run(tree, work, wl, seed, window, subwindow,
                                       traced, trace_path)
    failed_ops = int(res["missing"] + res["duplicate_commits"] + res["unknown_commits"]
                     + res["rejected"] + res["duplicate_acks"] + res["epoch_violations"])
    checks["setup_measured"] = len(setups) == SETUP_BOOTS
    metrics = {
        "commit_p50_ms": res["commit_p50_ms"],
        "commit_p99_ms": res["commit_p99_ms"],
        "committed_tps": res["committed_tps"],
        "replica_cpu_us_per_tx": res["replica_cpu_us_per_tx"],
        "peak_rss_mb": res["peak_rss_mb"],
        "setup_s": statistics.median(setups) if setups else 0.0,
    }
    layers = {
        "client.gen_lag_p99_ms": res["gen_lag_p99_ms"],
        "client.cpu_util": res["client_cpu_util"],
        "client.ack_p50_ms": res["ack_p50_ms"],
        "mempool.drop_ratio": res["mempool_drop_ratio"],
        "dl.stage_ingress_p50_ms": res["stage_ingress_p50_ms"],
        "dl.stage_disperse_p50_ms": res["stage_disperse_p50_ms"],
        "dl.stage_ba_p50_ms": res["stage_ba_p50_ms"],
        "dl.stage_retrieve_p50_ms": res["stage_retrieve_p50_ms"],
        "dl.stage_notify_p50_ms": res["stage_notify_p50_ms"],
        "dl.stage_retrieve_p99_ms": res["stage_retrieve_p99_ms"],
        "replica.cpu_util_max": res["replica_cpu_util_max"],
    }
    if traced:
        # One chrome trace: replica 0's spans (pid 0) and the client's (pid 100)
        # share CLOCK_MONOTONIC.
        with open(trace_path) as f:
            chrome = json.load(f)
        with open(os.path.join(work, "client_trace.json")) as f:
            chrome["traceEvents"] += json.load(f)["traceEvents"]
        with open(trace_path, "w") as f:
            json.dump(chrome, f)
        with open(os.path.join(work, "replica0.json")) as f:
            rep = json.load(f)
        checks["trace_window_complete"] = rep.pop("window_complete", 0) == 1
        # Replica 0's ledger holds no transaction twice, and none the client
        # did not see committed.
        checks["ledger_tx_unique"] = (rep.pop("ledger_duplicate_txs", 1) == 0
                                      and 0 < rep.pop("ledger_txs", 0) <= res["committed"])
        layers.update(rep)
    info = {"samples": res["samples"], "slices": res["slices"],
            "commit_p50_slices_ms": res["commit_p50_slices_ms"],
            "commit_p99_slices_ms": res["commit_p99_slices_ms"], "window_s": window,
            "offered_tps": wl["rate"], "setup_boots": setups}
    return metrics, layers, checks, int(res["attempted"]), failed_ops, info


# --- simulator -----------------------------------------------------------------

def sim_traced(tree, work, seed, trace_path):
    """One traced sim_geo16 scenario for the sim.* layers, and the digest of
    the runner's sweep JSON at SIM_DIGEST_SEED as a correctness check."""
    sim = os.path.join(tree, "lb_sim")
    p = subprocess.run([sim, "--digest", "--seed", str(SIM_DIGEST_SEED)],
                       stdout=subprocess.PIPE, text=True, timeout=170)
    digests = [line.split()[1] for line in p.stdout.splitlines() if line.startswith("digest ")]
    checks = {"sweep_json_digest": p.returncode == 0 and digests == [SIM_DIGEST]}
    out = os.path.join(work, "sim.json")
    cmd = [sim, "--seed", str(seed * 1000 + 1), "--out", out, "--trace", trace_path]
    if subprocess.run(cmd, stdout=subprocess.DEVNULL, timeout=170).returncode != 0:
        raise RuntimeError("lb_sim failed")
    with open(out) as f:
        run = json.load(f)
    layers = {k: v for k, v in run.items() if k.startswith("sim.")}
    return layers, checks, {"digest": digests, "sim_wall_s": run["wall_s"]}


# --- result ------------------------------------------------------------------

def compare(a_path, b_path):
    with open(a_path) as f:
        a = json.load(f)
    with open(b_path) as f:
        b = json.load(f)
    da, db = dict(a["descriptor"]), dict(b["descriptor"])
    for d in (da, db):  # the code under test may differ; the host may not
        d.pop("git_sha", None)
        d.pop("source_sha256", None)
    if da != db:
        diff = {k: (da.get(k), db.get(k)) for k in set(da) | set(db) if da.get(k) != db.get(k)}
        fail(f"descriptors differ, results are not comparable: {diff}", 2)
    for k in ("workload", "seconds", "trace"):
        if a[k] != b[k]:
            fail(f"different {k}: {a[k]} vs {b[k]}", 2)
    for k in sorted(set(a["metrics"]) & set(b["metrics"])):
        va, vb = a["metrics"][k], b["metrics"][k]
        rel = (vb - va) / va * 100 if va else float("nan")
        print(f"{k:36s} {va:14.4f} {vb:14.4f} {rel:+8.2f}%")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = ap.parse_args()
    # A SIGTERM unwinds like an error, so every child is stopped on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    if args.compare:
        compare(*args.compare)
        return
    if args.workload is None:
        ap.error("--workload is required")

    bdir = build_dir()
    tree = build(bdir)
    desc = descriptor(tree)
    work = os.path.join(bdir, "runs", f"{args.workload}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    os.makedirs(os.path.join(bdir, "traces"), exist_ok=True)
    trace_path = os.path.join(bdir, "traces", f"{args.workload}.json")
    traced = args.trace == 1
    try:
        metrics, layers, checks, attempted, failed, info = cluster_run(
            tree, work, args.workload, args.seed, args.seconds, traced, trace_path)
        if traced and args.workload == "small_tx":
            sim_layers, sim_checks, info["sim"] = sim_traced(
                tree, work, args.seed, os.path.join(bdir, "traces", "sim_geo16.json"))
            layers.update(sim_layers)
            checks.update(sim_checks)
    except (RuntimeError, OSError, subprocess.SubprocessError) as e:
        fail(f"run failed: {e} (logs kept in {work})")
    correct = all(checks.values())
    failed += sum(1 for ok in checks.values() if not ok)

    if traced:
        # The traced run's own end-to-end numbers show the tracing cost.
        for k in ("commit_p50_ms", "commit_p99_ms", "replica_cpu_us_per_tx"):
            layers["trace." + k] = metrics[k]
        # 0 marks a layer that is not on this workload's path.
        out_metrics = {k: {"value": float(layers.get(k, 0.0)), "unit": u}
                       for k, u in PER_LAYER.items()}
    else:
        out_metrics = {k: {"value": float(metrics[k]), "unit": u}
                       for k, u in END_TO_END.items()}

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "descriptor": desc, "checks": checks, "info": info,
              "metrics": {**metrics, **layers}}
    os.makedirs(os.path.join(bdir, "results"), exist_ok=True)
    rpath = os.path.join(bdir, "results", f"{args.workload}-trace{args.trace}-seed{args.seed}.json")
    with open(rpath, "w") as f:
        json.dump(record, f, indent=1)
    log(f"ledgerbench: {args.workload} checks {checks}")
    log(f"ledgerbench: info {info}; saved {rpath}")
    if correct:
        shutil.rmtree(work, ignore_errors=True)
    else:
        log(f"ledgerbench: checks failed; logs kept in {work}")
    print("descriptor " + json.dumps(desc))
    print(json.dumps({"correct": correct, "attempted": max(1, attempted),
                      "failed": failed, "metrics": out_metrics}))


if __name__ == "__main__":
    main()

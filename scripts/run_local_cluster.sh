#!/usr/bin/env bash
# Boots an n-replica DispersedLedger cluster on loopback TCP, drives a
# transaction workload, and verifies that every replica committed the same
# ledger prefix.
#
# Two workload modes:
#   default      each replica self-drives a synthetic workload (--selfdrive)
#                and exits after committing EPOCHS epochs.
#   -L           loadgen mode: replicas take NO synthetic load; dl_loadgen
#                submits TXCOUNT transactions through the client ingress
#                plane and must observe 100% of them committed. Replicas are
#                then shut down gracefully (SIGTERM) and their common ledger
#                prefix is required to be identical. BENCH_loadgen.{json,csv}
#                (dl-perf-v1: commit throughput + submit→commit percentiles)
#                land in the artifact directory.
#
# Usage: scripts/run_local_cluster.sh [options]
#   -n N          cluster size                  (default 4)
#   -e EPOCHS     epochs every replica must commit (default 120; selfdrive mode)
#   -b BUILD_DIR  directory containing dlnoded  (default build)
#   -p BASE_PORT  first listen port             (default random high port)
#   -t SECONDS    per-replica watchdog          (default 90)
#   -L            loadgen mode (see above)
#   -c TXCOUNT    transactions dl_loadgen submits (default 2000; -L only)
#   -r RATE       offered load in payload bytes/sec (default 400000; -L only)
#   -o DIR        where BENCH_loadgen.{json,csv} are copied (-L only)
#   -S            give every replica a durable store (dlnoded --store)
#   -F POLICY     store fsync policy: never | batch | always (default batch)
#   -K            crash mode (implies -S, selfdrive only): SIGKILL one
#                 replica after it commits EPOCHS/3 epochs, verify it died
#                 with exit 137, restart it against the same store, and
#                 require it to recover its prefix, catch up over the missed
#                 epochs, and finish with a ledger byte-identical to the
#                 others — including the pre-crash lines it already wrote.
#   -A MODE       adversary mode for replica N-1 (selfdrive only): one of
#                 none | crash@E | mute | slowdrip[@RATE] | equivocate |
#                 v-liar (dlnoded --adversary). The adversary replica runs
#                 open-ended, is SIGTERMed once every honest replica
#                 finishes, and is excluded from the prefix checks; the
#                 honest replicas must still commit an identical prefix.
#   -I MS         selfdrive offers one 256 B transaction every MS ms per
#                 replica (dlnoded --tx-interval-ms; default 5). A shaped
#                 run (-B) needs an interval whose coded load fits under the
#                 trace's lowest rate, or blocks and epochs grow without end.
#   -B TRACE      shape every replica's egress with a bandwidth trace file
#                 (bench/traces format); installs a wildcard [[link]] rule
#                 in the generated config, so one trace drives the whole
#                 cluster exactly like the simulator benches consume it.
#   -M            admin-scrape leg: every replica gets --admin-port (base +
#                 2N + id), --stats-interval and --flight-recorder; the
#                 script scrapes /metrics + /healthz mid-run, asserts the
#                 exposition parses and the key series (epoch frontier,
#                 peer bytes, shaper grants, live epochs, mempool drops in
#                 -L mode) are present and advancing, that no replica holds
#                 more live epochs than the retire horizon, and saves each
#                 replica's /statusz next to the logs (metrics_N.prom /
#                 statusz_N.json). With EPOCHS > horizon + 64 it scrapes
#                 replica 0 again past the horizon and requires a nonzero
#                 dl_node_retired_floor.
#   -k            keep the work directory on success
#
# Port collisions: replicas exit 3 when they cannot bind; the script then
# retries the whole boot on a fresh random port range (up to 5 attempts)
# before giving up, so a busy ephemeral port cannot flake the smoke test.
#
# Exit status: 0 iff every replica exited cleanly AND the checked ledger
# prefixes are byte-identical (and, with -L, dl_loadgen saw every submitted
# transaction commit).
set -euo pipefail
cd "$(dirname "$0")/.."

N=4
EPOCHS=120
BUILD_DIR=build
BASE_PORT=0
WATCHDOG=90
LOADGEN=0
TXCOUNT=2000
RATE=400000
OUT_DIR=""
STORE=0
FSYNC=batch
CRASH=0
KEEP=0
ADVERSARY=""
TRACE=""
ADMIN=0
TX_INTERVAL=""
while getopts "n:e:b:p:t:Lc:r:o:SF:KkA:I:B:M" opt; do
  case "$opt" in
    n) N="$OPTARG" ;;
    e) EPOCHS="$OPTARG" ;;
    b) BUILD_DIR="$OPTARG" ;;
    p) BASE_PORT="$OPTARG" ;;
    t) WATCHDOG="$OPTARG" ;;
    L) LOADGEN=1 ;;
    c) TXCOUNT="$OPTARG" ;;
    r) RATE="$OPTARG" ;;
    o) OUT_DIR="$OPTARG" ;;
    S) STORE=1 ;;
    F) FSYNC="$OPTARG" ;;
    K) CRASH=1; STORE=1 ;;
    k) KEEP=1 ;;
    A) ADVERSARY="$OPTARG" ;;
    I) TX_INTERVAL="$OPTARG" ;;
    B) TRACE="$OPTARG" ;;
    M) ADMIN=1 ;;
    *) exit 2 ;;
  esac
done
if [ "$CRASH" -eq 1 ] && [ "$LOADGEN" -eq 1 ]; then
  echo "run_local_cluster: -K requires selfdrive mode (drop -L)" >&2
  exit 2
fi
if [ -n "$ADVERSARY" ] && [ "$LOADGEN" -eq 1 ]; then
  echo "run_local_cluster: -A requires selfdrive mode (drop -L)" >&2
  exit 2
fi
if [ -n "$TX_INTERVAL" ] && [ "$LOADGEN" -eq 1 ]; then
  echo "run_local_cluster: -I requires selfdrive mode (drop -L)" >&2
  exit 2
fi
if [ -n "$ADVERSARY" ] && [ "$CRASH" -eq 1 ]; then
  echo "run_local_cluster: -A and -K both target replica N-1; pick one" >&2
  exit 2
fi
if [ -n "$TRACE" ] && [ ! -r "$TRACE" ]; then
  echo "run_local_cluster: trace file $TRACE not readable" >&2
  exit 2
fi
# Honest replicas: the ones that must finish on their own and whose ledger
# prefixes are compared. With an adversary, replica N-1 is excluded.
HONEST=$N
[ -n "$ADVERSARY" ] && HONEST=$((N - 1))

DLNODED="$BUILD_DIR/dlnoded"
DLLOADGEN="$BUILD_DIR/dl_loadgen"
if [ ! -x "$DLNODED" ]; then
  echo "run_local_cluster: $DLNODED not found (build first)" >&2
  exit 2
fi
if [ "$LOADGEN" -eq 1 ] && [ ! -x "$DLLOADGEN" ]; then
  echo "run_local_cluster: $DLLOADGEN not found (build first)" >&2
  exit 2
fi

WORK=$(mktemp -d /tmp/dl_cluster.XXXXXX)

write_config() {
  local base="$1"
  local f=$(((N - 1) / 3))
  {
    echo "[cluster]"
    echo "n = $N"
    echo "f = $f"
    for ((i = 0; i < N; i++)); do
      echo ""
      echo "[[node]]"
      echo "id = $i"
      echo "host = \"127.0.0.1\""
      echo "port = $((base + i))"
      if [ "$LOADGEN" -eq 1 ]; then
        echo "client_port = $((base + N + i))"
      fi
    done
    if [ -n "$TRACE" ]; then
      echo ""
      echo "[[link]]"
      echo "trace = \"wan.trace\""
    fi
  } > "$WORK/cluster.toml"
  if [ -n "$TRACE" ]; then cp "$TRACE" "$WORK/wan.trace"; fi
}

# Boots all replicas; on a bind collision (any replica exits 3 within the
# grace window) kills the survivors and returns 3 so the caller can retry
# on a fresh port range. On success, replica pids are in pids[].
pids=()
# Launches replica $1 (appending to its node_$1.out so a restart keeps the
# pre-crash log) and records its pid in pids[$1].
launch_replica() {
  local i="$1"
  local extra=()
  if [ "$LOADGEN" -eq 1 ]; then
    extra+=(--target-epochs 0)
  elif [ -n "$ADVERSARY" ] && [ "$i" -eq $((N - 1)) ]; then
    # The adversary replica deviates open-endedly; the script SIGTERMs it
    # once the honest replicas are done.
    extra+=(--selfdrive --target-epochs 0 --adversary "$ADVERSARY")
  else
    extra+=(--selfdrive --target-epochs "$EPOCHS")
  fi
  if [ -n "$TX_INTERVAL" ]; then
    extra+=(--tx-interval-ms "$TX_INTERVAL")
  fi
  if [ "$STORE" -eq 1 ]; then
    extra+=(--store "$WORK/store_$i" --fsync "$FSYNC" --catchup-ms 100)
  fi
  if [ "$ADMIN" -eq 1 ]; then
    extra+=(--admin-port $((admin_base + i)) --stats-interval 2 \
            --flight-recorder "$WORK/flight_$i.json")
  fi
  "$DLNODED" --config "$WORK/cluster.toml" --id "$i" \
    --ledger "$WORK/ledger_$i.log" --max-seconds "$WATCHDOG" \
    "${extra[@]}" >> "$WORK/node_$i.out" 2>&1 &
  pids[$i]=$!
}

boot_replicas() {
  pids=()
  for ((i = 0; i < N; i++)); do
    : > "$WORK/node_$i.out"
    launch_replica "$i"
  done
  # Bind failures surface within moments of exec; give them a beat.
  sleep 1
  for ((i = 0; i < N; i++)); do
    if ! kill -0 "${pids[$i]}" 2>/dev/null; then
      local rc=0
      wait "${pids[$i]}" || rc=$?
      if [ "$rc" -eq 3 ]; then
        echo "run_local_cluster: replica $i could not bind (port collision)" >&2
        for p in "${pids[@]}"; do kill "$p" 2>/dev/null || true; done
        wait 2>/dev/null || true
        return 3
      fi
    fi
  done
  return 0
}

booted=0
for attempt in 1 2 3 4 5; do
  if [ "$BASE_PORT" -ne 0 ] && [ "$attempt" -gt 1 ]; then
    echo "run_local_cluster: fixed base port $BASE_PORT busy, giving up" >&2
    break
  fi
  base=$BASE_PORT
  [ "$base" -eq 0 ] && base=$((20000 + RANDOM % 20000))
  admin_base=$((base + 2 * N))
  echo "run_local_cluster: n=$N mode=$([ "$LOADGEN" -eq 1 ] && echo loadgen || echo selfdrive)$([ "$CRASH" -eq 1 ] && echo +crash)$([ "$STORE" -eq 1 ] && echo " fsync=$FSYNC") base_port=$base attempt=$attempt work=$WORK"
  write_config "$base"
  rm -rf "$WORK"/store_*  # a collision retry must not look like a restart
  if boot_replicas; then
    booted=1
    break
  fi
done
if [ "$booted" -ne 1 ]; then
  echo "run_local_cluster: FAIL — could not allocate ports after retries" >&2
  exit 1
fi

fail=0

# --- Admin-scrape leg (-M) ---------------------------------------------------
# Fetches PATH from replica-local admin port $1 into $3; curl when present,
# bash /dev/tcp otherwise (headers stripped).
fetch_admin() {
  local port="$1" path="$2" out="$3"
  if command -v curl >/dev/null 2>&1; then
    curl -sf --max-time 5 "http://127.0.0.1:$port$path" > "$out"
  else
    exec 9<>"/dev/tcp/127.0.0.1/$port" || return 1
    printf 'GET %s HTTP/1.0\r\n\r\n' "$path" >&9
    sed '1,/^\r\{0,1\}$/d' <&9 > "$out"
    exec 9<&- 9>&-
    [ -s "$out" ]
  fi
}

# Every non-comment exposition line must be `name[{labels}] value`.
check_exposition() {
  awk '/^#/ {next}
       !/^[A-Za-z_:][A-Za-z0-9_:]*(\{[^}]*\})? -?[0-9]/ {bad = 1; print; exit}
       END {exit bad}' "$1"
}

frontier_of() {
  awk '$1 == "dl_node_epoch_frontier" {print $2; found = 1} END {if (!found) print -1}' "$1"
}

# DlNode::kRetireHorizon (src/dl/node.hpp): an epoch that far behind delivery
# is retired even if a peer never asked for its chunks, so an honest
# replica's live epoch count stays within it even next to a mute peer.
RETIRE_HORIZON=256
live_epochs_of() {
  awk '$1 == "dl_node_live_epochs" {print $2; found = 1} END {if (!found) print -1}' "$1"
}

# Scrapes replica $1 and checks liveness + key series presence.
scrape_replica() {
  local i="$1" port=$((admin_base + $1))
  if ! fetch_admin "$port" /metrics "$WORK/metrics_$i.prom"; then
    echo "run_local_cluster: cannot scrape replica $i on port $port" >&2
    return 1
  fi
  fetch_admin "$port" /statusz "$WORK/statusz_$i.json" || return 1
  fetch_admin "$port" /healthz "$WORK/healthz_$i.txt" || return 1
  grep -q '^ok' "$WORK/healthz_$i.txt" || {
    echo "run_local_cluster: replica $i /healthz not ok" >&2; return 1; }
  check_exposition "$WORK/metrics_$i.prom" || {
    echo "run_local_cluster: replica $i /metrics does not parse" >&2; return 1; }
  local series
  for series in dl_node_epoch_frontier 'dl_peer_sent_bytes_total{peer="' \
                dl_shaper_granted_bytes_total dl_loop_polls_total \
                dl_node_live_epochs; do
    grep -qF "$series" "$WORK/metrics_$i.prom" || {
      echo "run_local_cluster: replica $i missing series $series" >&2
      return 1; }
  done
  local live
  live=$(live_epochs_of "$WORK/metrics_$i.prom")
  if [ "$live" -gt "$RETIRE_HORIZON" ]; then
    echo "run_local_cluster: replica $i holds $live live epochs" \
         "(retire horizon $RETIRE_HORIZON)" >&2
    return 1
  fi
  if [ "$LOADGEN" -eq 1 ]; then
    grep -qF 'dl_mempool_dropped_total{cause="' "$WORK/metrics_$i.prom" || {
      echo "run_local_cluster: replica $i missing mempool drop series" >&2
      return 1; }
  fi
}

if [ "$ADMIN" -eq 1 ] && [ "$LOADGEN" -eq 0 ]; then
  # Mid-run scrape: sample replica 0 twice and require the epoch frontier
  # to advance between the samples, then scrape every honest replica once.
  # No extra settling sleep — short selfdrive runs finish within seconds
  # and the scrape must land while the replicas are still up.
  fetch_admin "$admin_base" /metrics "$WORK/metrics_early.prom" || fail=1
  early=$(frontier_of "$WORK/metrics_early.prom" 2>/dev/null || echo -1)
  sleep 0.5
  for ((i = 0; i < HONEST; i++)); do
    scrape_replica "$i" || fail=1
  done
  late=$(frontier_of "$WORK/metrics_0.prom" 2>/dev/null || echo -1)
  if [ "$fail" -eq 0 ] && { [ "$early" -lt 0 ] || [ "$late" -le "$early" ]; }; then
    echo "run_local_cluster: epoch frontier not advancing ($early -> $late)" >&2
    fail=1
  fi
  [ "$fail" -eq 0 ] && echo "run_local_cluster: admin scrape ok" \
    "(frontier $early -> $late across $HONEST replicas)"
fi

# Polls replica $1's ledger until it commits epoch $2; fails if the replica
# dies first or the watchdog runs out.
wait_for_epoch() {
  local i="$1" e="$2" waited=0
  while :; do
    if awk -v e="$e" '$1 >= e {found = 1; exit} END {exit !found}' \
        "$WORK/ledger_$i.log" 2>/dev/null; then
      return 0
    fi
    if ! kill -0 "${pids[$i]}" 2>/dev/null; then
      echo "run_local_cluster: replica $i exited before epoch $e" >&2
      return 1
    fi
    waited=$((waited + 1))
    if [ "$waited" -gt $((WATCHDOG * 10)) ]; then
      echo "run_local_cluster: replica $i never reached epoch $e" >&2
      return 1
    fi
    sleep 0.1
  done
}

if [ "$ADMIN" -eq 1 ] && [ "$LOADGEN" -eq 0 ] && [ "$fail" -eq 0 ] &&
   [ "$EPOCHS" -gt $((RETIRE_HORIZON + 64)) ]; then
  # Late scrape, once replica 0 is past the retire horizon: it must have
  # retired epochs (settled ones, or by the horizon next to a mute or
  # crashed peer) and hold no more than the horizon.
  if wait_for_epoch 0 $((RETIRE_HORIZON + 32)) && scrape_replica 0; then
    floor=$(awk '$1 == "dl_node_retired_floor" {print $2}' "$WORK/metrics_0.prom")
    if [ "${floor:-0}" -gt 0 ]; then
      echo "run_local_cluster: retire scrape ok (replica 0: floor $floor," \
           "$(live_epochs_of "$WORK/metrics_0.prom") live epochs)"
    else
      echo "run_local_cluster: replica 0 retired nothing past the horizon" >&2
      fail=1
    fi
  else
    fail=1
  fi
fi

if [ "$CRASH" -eq 1 ]; then
  # SIGKILL one replica mid-run, restart it against the same store, and let
  # the normal end-of-run checks prove it converged with everyone else.
  victim=$((N - 1))
  kill_at=$((EPOCHS / 3))
  [ "$kill_at" -lt 1 ] && kill_at=1
  wait_for_epoch "$victim" "$kill_at" || fail=1
  if [ "$fail" -eq 0 ]; then
    kill -KILL "${pids[$victim]}" 2>/dev/null || true
    rc=0
    wait "${pids[$victim]}" || rc=$?
    if [ "$rc" -ne 137 ]; then
      echo "run_local_cluster: victim exit $rc, expected 137 (SIGKILL)" >&2
      fail=1
    fi
    # Snapshot the lines the victim wrote before dying; its post-restart
    # ledger must reproduce them byte-identically at its head. Drop the
    # last line: SIGKILL can land mid-write() and tear it.
    head -n -1 "$WORK/ledger_$victim.log" > "$WORK/precrash_$victim.log" \
      2>/dev/null || : > "$WORK/precrash_$victim.log"
    echo "run_local_cluster: replica $victim SIGKILLed past epoch $kill_at" \
         "($(wc -l < "$WORK/precrash_$victim.log") durable ledger lines); restarting"
    launch_replica "$victim"
  fi
fi

if [ "$LOADGEN" -eq 1 ]; then
  # Drive the cluster purely through the client ingress plane.
  lg_rc=0
  "$DLLOADGEN" --config "$WORK/cluster.toml" --connections $((2 * N)) \
    --count "$TXCOUNT" --rate-bytes "$RATE" --tx-bytes 200 \
    --out "$WORK" --max-seconds "$WATCHDOG" --progress 2 \
    > "$WORK/loadgen.out" 2>&1 || lg_rc=$?
  tail -3 "$WORK/loadgen.out"
  if [ "$lg_rc" -ne 0 ]; then
    echo "run_local_cluster: dl_loadgen FAILED (rc=$lg_rc):" >&2
    tail -10 "$WORK/loadgen.out" >&2
    fail=1
  fi
  # Post-load scrape, while the replicas are still up: everything committed
  # by now, so the key series must be present and non-zero.
  if [ "$ADMIN" -eq 1 ]; then
    for ((i = 0; i < N; i++)); do
      scrape_replica "$i" || fail=1
    done
    if [ "$fail" -eq 0 ]; then
      front=$(frontier_of "$WORK/metrics_0.prom")
      if [ "$front" -le 0 ]; then
        echo "run_local_cluster: epoch frontier still $front after load" >&2
        fail=1
      else
        echo "run_local_cluster: admin scrape ok (frontier $front after load)"
      fi
    fi
  fi
  # Graceful shutdown; replicas must exit 0 (flushing their ledgers).
  for p in "${pids[@]}"; do kill -TERM "$p" 2>/dev/null || true; done
fi

# Collect and propagate every honest replica's exit code.
rcs=()
for ((i = 0; i < HONEST; i++)); do
  rc=0
  wait "${pids[$i]}" || rc=$?
  rcs+=("$rc")
  if [ "$rc" -ne 0 ]; then
    echo "run_local_cluster: replica $i FAILED (exit $rc):" >&2
    tail -5 "$WORK/node_$i.out" >&2
    fail=1
  fi
done
if [ -n "$ADVERSARY" ]; then
  # The adversary ran open-ended (or already died, e.g. crash@E exits 44):
  # stop it now. Its exit code is logged but never fails the run — the
  # check that matters is that the HONEST replicas closed their epochs.
  adv=$((N - 1))
  kill -TERM "${pids[$adv]}" 2>/dev/null || true
  rc=0
  wait "${pids[$adv]}" || rc=$?
  rcs+=("adv:$rc")
  echo "run_local_cluster: adversary replica $adv ($ADVERSARY) exit $rc"
fi
echo "run_local_cluster: replica exit codes: ${rcs[*]}"

# Ledger agreement. Selfdrive mode: every replica delivered epochs
# [0, EPOCHS) completely before exiting, so the lines with
# delivered-at-epoch < EPOCHS must be identical files. Loadgen mode:
# replicas were stopped asynchronously, so compare the longest common
# (min-length) prefix instead — it must cover every committed transaction.
if [ "$fail" -eq 0 ]; then
  if [ "$LOADGEN" -eq 1 ]; then
    min_lines=$(wc -l < "$WORK/ledger_0.log")
    for ((i = 1; i < N; i++)); do
      l=$(wc -l < "$WORK/ledger_$i.log")
      [ "$l" -lt "$min_lines" ] && min_lines=$l
    done
    if [ "$min_lines" -lt 1 ]; then
      echo "run_local_cluster: empty ledger prefix" >&2
      fail=1
    fi
    for ((i = 0; i < N; i++)); do
      head -n "$min_lines" "$WORK/ledger_$i.log" > "$WORK/prefix_$i.log"
    done
    lines=$min_lines
  else
    for ((i = 0; i < HONEST; i++)); do
      awk -v e="$EPOCHS" '$1 < e' "$WORK/ledger_$i.log" > "$WORK/prefix_$i.log"
    done
    lines=$(wc -l < "$WORK/prefix_0.log")
    if [ "$lines" -lt "$EPOCHS" ]; then
      echo "run_local_cluster: replica 0 prefix has only $lines lines" >&2
      fail=1
    fi
  fi
  for ((i = 1; i < HONEST; i++)); do
    if ! cmp -s "$WORK/prefix_0.log" "$WORK/prefix_$i.log"; then
      echo "run_local_cluster: LEDGER DIVERGENCE between replica 0 and $i" >&2
      diff "$WORK/prefix_0.log" "$WORK/prefix_$i.log" | head -10 >&2 || true
      fail=1
    fi
  done
fi

# Crash mode: beyond agreeing with everyone else, the restarted victim's
# ledger must begin with the exact lines it durably wrote before the
# SIGKILL (the store-derived rewrite may not invent or reorder history),
# and its log must show that the store recovery actually ran.
if [ "$CRASH" -eq 1 ] && [ "$fail" -eq 0 ]; then
  pre=$(wc -l < "$WORK/precrash_$victim.log")
  if [ "$pre" -gt 0 ] && ! head -n "$pre" "$WORK/ledger_$victim.log" \
      | cmp -s - "$WORK/precrash_$victim.log"; then
    echo "run_local_cluster: restarted replica $victim REWROTE its pre-crash prefix" >&2
    fail=1
  fi
  if ! grep -q "recovered .* epochs" "$WORK/node_$victim.out"; then
    echo "run_local_cluster: replica $victim restarted without store recovery" >&2
    fail=1
  fi
  if [ "$fail" -eq 0 ]; then
    echo "run_local_cluster: crash recovery verified — replica $victim kept" \
         "$pre pre-crash lines and caught up to the cluster"
  fi
fi

# Admin leg: every honest replica must have dumped a chrome-trace flight
# recorder file at exit.
if [ "$ADMIN" -eq 1 ] && [ "$fail" -eq 0 ]; then
  for ((i = 0; i < HONEST; i++)); do
    if ! grep -q '"traceEvents"' "$WORK/flight_$i.json" 2>/dev/null; then
      echo "run_local_cluster: replica $i flight recorder dump missing/invalid" >&2
      fail=1
    fi
  done
fi

# Loadgen mode: the perf artifact must exist with non-empty percentiles.
if [ "$LOADGEN" -eq 1 ] && [ "$fail" -eq 0 ]; then
  if [ ! -s "$WORK/BENCH_loadgen.json" ]; then
    echo "run_local_cluster: missing BENCH_loadgen.json" >&2
    fail=1
  elif grep -q '"name":"submit_commit_p50","unit":"ns","ops":0,' \
      "$WORK/BENCH_loadgen.json"; then
    echo "run_local_cluster: empty latency percentiles in BENCH_loadgen.json" >&2
    fail=1
  fi
  if [ -n "$OUT_DIR" ] && [ "$fail" -eq 0 ]; then
    mkdir -p "$OUT_DIR"
    cp "$WORK/BENCH_loadgen.json" "$WORK/BENCH_loadgen.csv" "$OUT_DIR/"
  fi
fi

if [ "$fail" -eq 0 ]; then
  if [ "$LOADGEN" -eq 1 ]; then
    echo "run_local_cluster: PASS — $N replicas agree on a $lines-block" \
         "prefix; dl_loadgen committed $TXCOUNT/$TXCOUNT transactions"
  else
    echo "run_local_cluster: PASS — $HONEST replicas committed an identical" \
         "$lines-block prefix covering $EPOCHS epochs$([ -n "$ADVERSARY" ] \
         && echo " (adversary: $ADVERSARY)")$([ -n "$TRACE" ] \
         && echo " (shaped: $(basename "$TRACE"))")"
  fi
  [ "$KEEP" -eq 1 ] || rm -rf "$WORK"
else
  echo "run_local_cluster: FAIL — logs kept in $WORK" >&2
fi
exit "$fail"

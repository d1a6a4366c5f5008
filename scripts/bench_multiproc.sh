#!/usr/bin/env bash
# In-process vs multi-process quorum latency comparison.
#
# Starts one lds_served head in member mode (all 6 L1 + 8 L2 servers local,
# epoch 1) and benches it over loopback TCP; then a member peer joins and
# claims two L2 servers (epoch 2, every write/read quorum now spans two
# processes) and the identical workload is re-run against the same head.
# Both runs use lds_store_bench --remote, so the only variable is whether
# the quorum is in-process or crosses a process boundary.
#
#   scripts/bench_multiproc.sh                      # writes BENCH_multiproc.json
#   OPS=8000 VALUE_SIZE=1024 scripts/bench_multiproc.sh
#
# Environment knobs:
#   SERVED_BIN       lds_served binary (default build/lds_served)
#   STORE_BENCH_BIN  lds_store_bench binary (default build/lds_store_bench)
#   OPS / THREADS / KEYS / VALUE_SIZE / SEED   workload shape (3000/4/16/256/1)
#   OUT              output path (default BENCH_multiproc.json)
#
# The head's SIGTERM self-verification and the peer's clean exit gate the
# result: a json is only written if both phases were verified.  It holds
# both runs' lds_store_bench rows, each params prefixed with
# phase=in_process or phase=multi_process.
set -euo pipefail

SERVED_BIN=${SERVED_BIN:-build/lds_served}
STORE_BENCH_BIN=${STORE_BENCH_BIN:-build/lds_store_bench}
OPS=${OPS:-3000}
THREADS=${THREADS:-4}
KEYS=${KEYS:-16}
VALUE_SIZE=${VALUE_SIZE:-256}
SEED=${SEED:-1}
OUT=${OUT:-BENCH_multiproc.json}

for bin in "$SERVED_BIN" "$STORE_BENCH_BIN"; do
  if [[ ! -x "$bin" ]]; then
    echo "error: $bin not found or not executable." >&2
    echo "build first:  cmake -B build -S . && cmake --build build -j" >&2
    exit 2
  fi
done

work=$(mktemp -d)
head_pid="" peer_pid=""
cleanup() {
  for p in $peer_pid $head_pid; do kill "$p" 2>/dev/null || true; done
  rm -rf "$work"
}
trap cleanup EXIT

wait_file() {  # wait_file PATH TIMEOUT_DECISECONDS
  local path=$1 budget=$2
  for _ in $(seq "$budget"); do [[ -s "$path" ]] && return 0; sleep 0.1; done
  return 1
}

# ---- head: store + membership coordinator, everything local (epoch 1) ------
"$SERVED_BIN" --port 0 --port-file "$work/port" --shards 1 \
  --member-port 0 --member-port-file "$work/mport" \
  --member-dir "$work/view" --seed "$SEED" > "$work/head.log" &
head_pid=$!
wait_file "$work/port" 100 && wait_file "$work/mport" 100 || {
  echo "error: head failed to start:" >&2; cat "$work/head.log" >&2; exit 1
}
port=$(cat "$work/port")
mport=$(cat "$work/mport")

echo "phase 1/2: in-process placement (epoch 1), $OPS ops ..."
"$STORE_BENCH_BIN" --remote "127.0.0.1:$port" --threads "$THREADS" \
  --ops "$OPS" --keys "$KEYS" --value-sizes "$VALUE_SIZE" --seed "$SEED" \
  --json "$work/inproc.json" > /dev/null

# ---- peer joins, claiming two L2 servers (epoch 2) -------------------------
# Every view activation rewrites the head's VIEW file, so the epoch-2
# activation is detected by the file's checksum changing.
view_sum=$(cksum "$work/view/VIEW")
"$SERVED_BIN" --join "127.0.0.1:$mport" --node-ids 30004,30005 \
  --member-port 0 --member-port-file "$work/peer-mport" \
  --seed $((SEED + 101)) > "$work/peer.log" &
peer_pid=$!
wait_file "$work/peer-mport" 100 || {
  echo "error: peer failed to start:" >&2; cat "$work/peer.log" >&2; exit 1
}
for _ in $(seq 100); do
  [[ "$(cksum "$work/view/VIEW")" != "$view_sum" ]] && break
  sleep 0.1
done
if [[ "$(cksum "$work/view/VIEW")" == "$view_sum" ]]; then
  echo "error: join did not activate a new view within 10s." >&2
  exit 1
fi

echo "phase 2/2: cross-process placement (epoch 2), $OPS ops ..."
"$STORE_BENCH_BIN" --remote "127.0.0.1:$port" --threads "$THREADS" \
  --ops "$OPS" --keys "$KEYS" --value-sizes "$VALUE_SIZE" \
  --seed $((SEED + 1)) --json "$work/multiproc.json" > /dev/null

# ---- verified shutdown: exit codes are the verification verdicts -----------
kill -TERM "$peer_pid"
if ! wait "$peer_pid"; then echo "error: peer shutdown failed." >&2; exit 1; fi
peer_pid=""
kill -TERM "$head_pid"
if ! wait "$head_pid"; then
  echo "error: head shutdown verification failed." >&2; exit 1
fi
head_pid=""

# Merge both runs' rows into one document, tagging each row with its phase.
python3 - "$work/inproc.json" "$work/multiproc.json" "$OUT" <<'PY'
import json, sys
rows = []
for phase, path in (("in_process", sys.argv[1]), ("multi_process", sys.argv[2])):
    for r in json.load(open(path))["results"]:
        r["params"] = f"phase={phase} {r['params']}".strip()
        rows.append(r)
json.dump({"bench": "multiproc", "results": rows}, open(sys.argv[3], "w"),
          indent=1)
p99 = {(r["params"].split()[0], r["metric"]): r["value"] for r in rows
       if r["metric"].endswith("_p99")}
for op in ("put_ms", "get_ms"):
    ratio = p99[("phase=multi_process", op + "_p99")] / \
        p99[("phase=in_process", op + "_p99")]
    print(f"{op} p99 multi/in-process: {ratio:.3f}x")
PY

#!/usr/bin/env bash
# Workload-aware read-cache A/B over loopback TCP.
#
# Starts one lds_served and runs lds_store_bench --remote --compare-cache
# against it: the identical seeded Zipfian/read-heavy workload in three
# alternating cache off/on pairs, same op stream byte for byte every leg
# (the cache consumes no RNG draws).  The bench itself verifies every leg's
# client-observed histories per tenant (atomicity + freshness), computes hit
# rate / per-pair p99 cuts / bytes-on-wire saved, applies the gate (>=80%
# hit rate and >=30% median per-pair p99 get improvement at theta>=0.99,
# >=90% reads) and writes its rows to BENCH_workloads.json.
#
#   scripts/bench_workloads.sh                      # writes BENCH_workloads.json
#   OPS=20000 ZIPF_THETA=0.9 READ_FRACTION=0.8 scripts/bench_workloads.sh
#
# Environment knobs:
#   SERVED_BIN       lds_served binary (default build/lds_served)
#   STORE_BENCH_BIN  lds_store_bench binary (default build/lds_store_bench)
#   OPS / THREADS / KEYS / SEED     workload shape (default 12000/4/64/1)
#   ZIPF_THETA / READ_FRACTION / TENANTS  gate workload (default 0.99/0.95/2)
#   VALUE_DIST       value-size spec (default uniform:256:4096)
#   OUT              output path (default BENCH_workloads.json)
#
# The server's SIGTERM self-verification gates the result on top of the
# bench's own per-tenant verifiers: the json only survives if every check
# passed on every cache-off and cache-on leg.
set -euo pipefail

SERVED_BIN=${SERVED_BIN:-build/lds_served}
STORE_BENCH_BIN=${STORE_BENCH_BIN:-build/lds_store_bench}
OPS=${OPS:-12000}
THREADS=${THREADS:-4}
KEYS=${KEYS:-64}
SEED=${SEED:-1}
ZIPF_THETA=${ZIPF_THETA:-0.99}
READ_FRACTION=${READ_FRACTION:-0.95}
TENANTS=${TENANTS:-2}
VALUE_DIST=${VALUE_DIST:-uniform:256:4096}
OUT=${OUT:-BENCH_workloads.json}

for bin in "$SERVED_BIN" "$STORE_BENCH_BIN"; do
  if [[ ! -x "$bin" ]]; then
    echo "error: $bin not found or not executable." >&2
    echo "build first:  cmake -B build -S . && cmake --build build -j" >&2
    exit 2
  fi
done

work=$(mktemp -d)
served_pid=""
cleanup() {
  [[ -n "$served_pid" ]] && kill "$served_pid" 2>/dev/null || true
  rm -rf "$work"
}
trap cleanup EXIT

"$SERVED_BIN" --port 0 --port-file "$work/port" --shards 4 --threads 2 \
  --seed "$SEED" > "$work/served.log" &
served_pid=$!
for _ in $(seq 100); do [[ -s "$work/port" ]] && break; sleep 0.1; done
if [[ ! -s "$work/port" ]]; then
  echo "error: lds_served failed to start:" >&2
  cat "$work/served.log" >&2
  exit 1
fi
port=$(cat "$work/port")

"$STORE_BENCH_BIN" --remote "127.0.0.1:$port" \
  --threads "$THREADS" --ops "$OPS" --keys "$KEYS" --seed "$SEED" \
  --zipf-theta "$ZIPF_THETA" --read-fraction "$READ_FRACTION" \
  --tenants "$TENANTS" --value-dist "$VALUE_DIST" \
  --compare-cache --json "$OUT"

# Verified shutdown: the server re-checks every shard history on SIGTERM and
# exits non-zero on any violation.
kill -TERM "$served_pid"
if ! wait "$served_pid"; then
  echo "error: lds_served shutdown verification failed." >&2
  exit 1
fi
served_pid=""
echo "wrote $OUT (server-side shutdown verification passed)"

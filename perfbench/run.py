#!/usr/bin/env python3
"""One benchmark run: build, start a fresh lds_served, drive it, check it.

    python3 perfbench/run.py --workload small_mixed --seed 1 --seconds 20 \
        --trace 0

Run from the repository root.  The first run builds lds_served and
perfbench_client from source into $CARGO_TARGET_DIR (default .bench_build).

--trace 0 (end-to-end run): the server is set up SETUPS times from scratch
(spawn, listen, priming every key) and setup_s is the median; the last
set-up is measured for --seconds.  The server's peak RSS is read by the
client when the workload's fixed op count has completed.  Every
client-observed history must pass the atomicity and freshness checkers and
every server must pass its own SIGTERM verification (exit 0); otherwise the
run prints "correct": false with no metrics and exits 1.

--trace 1 (traced run): one set-up, measured for --seconds with a span
around every client op; then the per-layer probes of perfbench_client run,
each call in a span, and the per-layer metrics named in BENCHMARK.json are
printed.  The tracing overhead is one span's cost over the mean op time.

The last line of standard output is the JSON result.
"""
import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUPS = 5
LAYERS = ("gf", "codes", "lds", "net", "storage", "store")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(build_dir):
    """Configure (once) and build the two programs the benchmark runs."""
    gen = ["-G", "Ninja"] if shutil.which("ninja") else []
    configured = any(os.path.exists(os.path.join(build_dir, f))
                     for f in ("build.ninja", "Makefile"))
    if not configured:
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"] + gen,
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "--target", "lds_served",
                    "perfbench_client", "-j", str(os.cpu_count() or 1)],
                   check=True, stdout=sys.stderr)


class Client:
    def __init__(self, build_dir):
        self.exe = os.path.join(build_dir, "perfbench_client")

    def run(self, args, timeout=150):
        """Run one subcommand; returns (exit code, its JSON output line)."""
        p = subprocess.run([self.exe] + args, stdout=subprocess.PIPE,
                           timeout=timeout, text=True)
        lines = p.stdout.strip().splitlines()
        out = json.loads(lines[-1]) if lines else {}
        return p.returncode, out


class Server:
    """A fresh lds_served on an ephemeral port.  It keeps its default
    --seed: the server seed places keys on shards (the consistent-hash
    ring) and so decides how evenly the lanes are loaded; the run's seed
    only drives the op stream, which is all the server sees of it."""

    def __init__(self, build_dir, run_dir, tag, desc):
        self.port_file = os.path.join(run_dir, "port-%s" % tag)
        cmd = [os.path.join(build_dir, "lds", "lds_served"), "--port", "0",
               "--port-file", self.port_file,
               "--shards", str(desc["shards"]),
               "--threads", str(desc["lanes"])]
        self.log = open(os.path.join(run_dir, "server-%s.log" % tag), "w")
        self.spawned = time.monotonic()
        self.proc = subprocess.Popen(cmd, stdout=self.log,
                                     stderr=subprocess.STDOUT)
        self.port = self._wait_port()

    def _wait_port(self):
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError("lds_served exited at start")
            try:
                with open(self.port_file) as f:
                    return int(f.read().strip())
            except (OSError, ValueError):
                time.sleep(0.002)
        raise RuntimeError("lds_served did not listen")

    def stop(self):
        """SIGTERM; the exit code is the server's history verification."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            code = self.proc.wait(timeout=120)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
            code = -9
        self.log.close()
        return code

    def kill(self):
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()
        if not self.log.closed:
            self.log.close()


def self_ms(paths):
    """Self time per layer from span files: each span's duration minus the
    part of it its child spans cover."""
    spans = []
    for p in paths:
        if os.path.exists(p):
            with open(p) as f:
                spans += [json.loads(line) for line in f if line.strip()]
    child = {}
    for s in spans:
        if s["parent"]:
            child[s["parent"]] = child.get(s["parent"], 0.0) + \
                s["end"] - s["start"]
    out = {layer: 0.0 for layer in LAYERS}
    for s in spans:
        d = s["end"] - s["start"] - child.get(s["id"], 0.0)
        out[s["layer"]] = out.get(s["layer"], 0.0) + max(0.0, d) * 1e3
    return out, len(spans)


def percentile_note(load, name):
    q = load[name + "_q"]
    n = load[name + "_n"]
    k = load[name + "_windows"]
    want = 0.99 if name.endswith("p99") else 0.5
    where = "median over %d windows of n=%d" % (k, n) if k > 1 \
        else "n=%d" % n
    value = "%s_ms = %.4f" % (name, load[name + "_ms"])
    if q == 0:
        return "%s: too few samples (n=%d)" % (name, n)
    if q < want:
        return "%s: p%.2f (%s): only that leaves 10 samples beyond it" \
            % (value, q * 100, where)
    return "%s: p%g, %s" % (value, want * 100, where)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    build_dir = os.path.abspath(os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build")))
    build(build_dir)
    client = Client(build_dir)
    code, desc = client.run(["describe", "--workload", args.workload])
    if code != 0:
        raise RuntimeError("unknown workload %s" % args.workload)

    run_dir = os.path.join(build_dir, "runs", "%s-%d-%d" % (
        args.workload, args.seed, os.getpid()))
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    servers = []
    load = {}
    try:
        correct = True
        setups = []
        nsetups = 1 if args.trace else SETUPS
        for i in range(nsetups):
            srv = Server(build_dir, run_dir, str(i), desc)
            servers.append(srv)
            load_args = ["load", "--port", str(srv.port)] + common
            if i < nsetups - 1:
                code, out = client.run(load_args + ["--prime-only"])
                correct = correct and code == 0
                setups.append(out["first_op_mono_s"] - srv.spawned)
                correct = correct and srv.stop() == 0
                continue
            load_args += ["--seconds", str(args.seconds),
                          "--server-pid", str(srv.proc.pid)]
            if args.trace:
                load_args += ["--spans",
                              os.path.join(run_dir, "spans-load.jsonl")]
            code, load = client.run(load_args,
                                    timeout=args.seconds + 120)
            correct = correct and code == 0 and load.get("verified", False)
            setups.append(load["first_op_mono_s"] - srv.spawned)
            correct = correct and srv.stop() == 0

        metrics = {}
        if args.trace and correct:
            layer_args = ["layers", "--dir", os.path.join(run_dir, "layers"),
                          "--spans", os.path.join(run_dir,
                                                  "spans-layers.jsonl"),
                          "--seconds", "2"] + common
            code, layers = client.run(layer_args)
            correct = correct and code == 0
            vals = dict(layers)
            vals["trace.span_ns"] = load["span_ns"]
            vals["trace.overhead_frac"] = load["overhead_frac"]
            selfs, nspans = self_ms([
                os.path.join(run_dir, "spans-load.jsonl"),
                os.path.join(run_dir, "spans-layers.jsonl")])
            vals["trace.spans"] = nspans
            for layer, ms in selfs.items():
                vals["trace.self_ms." + layer] = ms
        elif correct:
            code, replay = client.run(["replay"] + common)
            correct = correct and code == 0
            vals = dict(replay)
            vals.update({k: load[k] for k in (
                "throughput_ops_s", "get_p50_ms")})
            vals["setup_s"] = statistics.median(setups)
            if "server_rss_mb" not in load:
                raise RuntimeError(
                    "server_rss_mb: only %d of the %d ops it is read at "
                    "completed" % (load["ops_done"], load["rss_at_ops"]))
            vals["server_rss_mb"] = load["server_rss_mb"]
            for name in ("get_p50", "get_p99", "put_p50", "put_p99"):
                print(percentile_note(load, name))
            print("setup_s samples: %s" % ", ".join(
                "%.4f" % s for s in setups))
        if correct:
            for m in wanted:
                if m["name"] not in vals:
                    raise RuntimeError("metric %s not produced" % m["name"])
                metrics[m["name"]] = {"value": vals[m["name"]],
                                      "unit": m["unit"]}
        attempted = max(1, load.get("attempted", 0))
        failed = load.get("failed", 0)
        # error_rate (failed, rejected or timed-out ops over ops attempted)
        # travels in the result's attempted/failed fields.
        print("workload %s seed %d: attempted %d failed %d error_rate %.6f "
              "verified %s" % (args.workload, args.seed, attempted, failed,
                               failed / attempted, correct))
        print(json.dumps({"correct": bool(correct), "attempted": attempted,
                          "failed": failed,
                          "metrics": metrics if correct else {}}))
        return 0 if correct else 1
    finally:
        for s in servers:
            s.kill()
        # A traced run keeps its span files and server logs; the probes'
        # directories and untraced runs go.
        if args.trace:
            for entry in os.listdir(run_dir):
                path = os.path.join(run_dir, entry)
                if os.path.isdir(path):
                    shutil.rmtree(path, ignore_errors=True)
        else:
            shutil.rmtree(run_dir, ignore_errors=True)


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (OSError, RuntimeError, subprocess.SubprocessError,
            KeyError, ValueError) as e:
        log("perfbench: %s" % e)
        sys.exit(2)

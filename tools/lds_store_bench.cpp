// lds_store_bench — throughput driver for the sharded store service.
//
// Sweeps threads x shards x value-size: every OS thread runs one
// StoreService replica (its own simulated world) under a closed-loop client
// mix with no think time, so per-replica throughput is ops per *simulated*
// time unit — deterministic for a fixed seed, and the number that shows how
// aggregate service capacity scales with the shard count (more shards = more
// clusters advancing concurrently in one time base).  Aggregate throughput
// is the sum over replicas.
//
//   lds_store_bench                         # default sweep: 1,2,4,8 shards
//   lds_store_bench --shards 1,4 --value-sizes 64,1024 --json out.json
//   lds_store_bench --engine parallel --threads 8 --shards 8
//   lds_store_bench --remote 127.0.0.1:7777 --threads 4   # vs lds_served
//
// --engine selects the execution engine (net/engine.h):
//   sim      — every OS thread runs one deterministic StoreService replica;
//              per-replica throughput is ops per *simulated* time unit
//              (bit-reproducible for a fixed seed), aggregate is the sum.
//   parallel — ONE StoreService per configuration with its shards spread
//              over --threads ParallelEngine lanes; the number that matters
//              is real wall-clock ops/s, printed for both engines so the
//              speedup is directly comparable on the same workload.
// Every run replays each shard's recorded history through the atomicity and
// freshness verifiers and reports the verdict (the linearizability gate for
// the non-deterministic parallel engine).
//
// --remote host:port drives a running lds_served instance instead of an
// in-process service: --threads OS threads each hold one client (whose
// connection-pool size sweeps over --connections) and run a put/get mix —
// every fourth closed-loop read is a multi_get — while recording a
// CLIENT-OBSERVED history with wall-clock invocation/response times.  That
// history goes through the same atomicity + freshness verifiers, so the
// linearizability gate holds across a real network hop (NotFound reads are
// recorded as the initial value, so a stale NotFound after a completed put
// is a violation, not a skip).  Shard count and backend are whatever the
// server was started with.
//
// Two remote load modes:
//   closed loop (default)  — each thread waits for every reply before the
//                            next request; latency is pure service time.
//   open loop (--rate R)   — requests arrive at R ops/s total, spread over
//                            the threads and submitted through the ASYNC
//                            completion-queue API regardless of how long
//                            replies take.  Latency is measured from the
//                            INTENDED arrival time (immune to coordinated
//                            omission), so the p99-vs-offered-load curve is
//                            honest once the server saturates.  --bursty
//                            draws exponential interarrivals (Poisson
//                            process) instead of a fixed spacing.
// Per-op latency histograms (p50/p99/p999, milliseconds) are printed per
// configuration.
//
// --json PATH writes JsonReporter rows (bench/json_reporter.h), the one row
// shape of every BENCH_*.json file: one {name, params, metric, value} row
// per number, `params` naming the sweep point ("engine= shards= threads=
// connections= rate= value_size="), plus one host_cpus row.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <chrono>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "harness/recorder.h"
#include "harness/workload.h"
#include "json_reporter.h"
#include "store/client.h"

namespace {

using namespace lds;
using store::Client;
using store::GetResult;
using store::PutResult;
using store::StoreOptions;
using store::StoreService;

struct BenchOptions {
  lds::net::EngineMode engine = lds::net::EngineMode::Deterministic;
  std::vector<std::size_t> shards = {1, 2, 4, 8};
  std::vector<std::size_t> value_sizes = {256};
  std::size_t threads = 1;
  std::size_t ops = 4000;  ///< per replica per configuration
  std::size_t keys = 32;
  double read_fraction = 0.5;
  std::uint64_t seed = 1;
  std::string remote_host;  ///< non-empty = drive a served instance
  std::uint16_t remote_port = 0;
  std::vector<std::size_t> connections = {1};  ///< remote: pool-size sweep
  double rate = 0;        ///< remote: open-loop offered load, ops/s (0 = closed)
  bool bursty = false;    ///< remote: Poisson arrivals instead of fixed spacing
  // Workload engine (shared with lds_stress via harness/workload.h).
  double zipf_theta = 0;    ///< key skew: 0 uniform, 0.99 = YCSB default
  std::string value_dist;   ///< "" = fixed at the swept value size
  std::size_t tenants = 1;  ///< disjoint key namespaces, threads round-robin
  bool compare_cache = false;  ///< remote: same-seed cache off-vs-on A/B
  /// Client read cache (version-validated tag-only rounds); set per leg of
  /// --compare-cache.
  bool cache = false;
  bool multi_get_mix = true;  ///< closed loop: every 4th read is a multi_get
};

/// Closed-loop clients per shard in the in-process engines.
constexpr std::size_t kClientsPerShard = 4;

/// A latency histogram's summary, in milliseconds.
struct LatencyMs {
  std::uint64_t count = 0;
  double mean = 0, p50 = 0, p99 = 0, p999 = 0, max = 0;
};

LatencyMs summarize(const store::Histogram& h) {
  return {h.count(),           h.mean(),           h.percentile(0.5),
          h.percentile(0.99), h.percentile(0.999), h.max()};
}

struct ReplicaResult {
  double duration = 0;  ///< sim time from first op to last completion
  std::size_t ops = 0;
  std::uint64_t batches = 0;
  std::uint64_t coalesced = 0;
  bool verified = true;  ///< every shard history passed both checkers
  LatencyMs put_ms, get_ms;  ///< remote only
  /// Client read-cache counters, summed over the driving clients.
  std::uint64_t cache_hits = 0, cache_misses = 0, cache_validations = 0,
                cache_invalidations = 0, bytes_saved = 0;
};

harness::WorkloadModel make_model(const BenchOptions& opt,
                                  std::size_t value_size) {
  harness::WorkloadOptions w;
  w.keys = opt.keys;
  w.read_fraction = opt.read_fraction;
  w.zipf_theta = opt.zipf_theta;
  if (!opt.value_dist.empty()) {
    if (const auto d = harness::ValueSizeDist::parse(opt.value_dist);
        d.has_value()) {
      w.value_dist = *d;
    }
  } else {
    w.value_dist.kind = harness::ValueSizeDist::Kind::Fixed;
    w.value_dist.a = w.value_dist.b = value_size;
  }
  w.tenants = opt.tenants;
  w.seed = opt.seed;
  return harness::WorkloadModel(w);
}

void add_cache_stats(const Client& client, ReplicaResult* out) {
  const auto& m = client.metrics();
  out->cache_hits += m.counter_total("cache_hits");
  out->cache_misses += m.counter_total("cache_misses");
  out->cache_validations += m.counter_total("cache_validation_rounds");
  out->cache_invalidations += m.counter_total("cache_invalidations");
  out->bytes_saved += m.counter_total("wire_value_bytes_saved");
}

/// The in-process tail both engines share: service counters and the
/// verdict over every shard history (atomicity + freshness).
ReplicaResult service_result(const BenchOptions& opt, StoreService& svc) {
  ReplicaResult out;
  out.ops = opt.ops;
  out.batches = svc.metrics().counter_total("batches");
  out.coalesced = svc.metrics().counter_total("puts_coalesced");
  for (std::size_t s = 0; s < svc.num_shards(); ++s) {
    out.verified =
        out.verified && harness::verify_history(svc.shard_history(s)).ok();
  }
  return out;
}

ReplicaResult run_replica(const BenchOptions& opt, std::size_t shards,
                          std::size_t value_size, std::uint64_t seed) {
  StoreOptions sopt;
  sopt.shards = shards;
  sopt.seed = seed;
  StoreService svc(sopt);
  Client client(svc);
  const harness::WorkloadModel model = make_model(opt, value_size);
  Rng rng(mix_seed(seed, 0xb0));

  std::size_t remaining = opt.ops;
  std::size_t done = 0;
  double done_time = 0;
  // `next` carries the issuing client's tenant so its ops stay inside that
  // tenant's key namespace (clients round-robin over tenants).
  std::function<void(std::size_t)> next = [&](std::size_t tenant) {
    if (remaining == 0) return;
    --remaining;
    const std::string key = model.key_name(tenant, model.key_index(rng));
    auto complete = [&, tenant] {
      ++done;
      if (done == opt.ops) done_time = svc.sim().now();
      next(tenant);
    };
    if (rng.bernoulli(opt.read_fraction)) {
      client.get(key, [complete](const GetResult&) { complete(); });
    } else {
      client.put(key, rng.bytes(model.value_size(rng)),
                 [complete](const PutResult&) { complete(); });
    }
  };
  const std::size_t clients = kClientsPerShard * shards;
  for (std::size_t c = 0; c < clients; ++c) {
    svc.sim().at(0.0, [&next, t = model.tenant_of_client(c)] { next(t); });
  }
  svc.quiesce([&] { return remaining == 0; });

  ReplicaResult out = service_result(opt, svc);
  out.duration = done_time;
  return out;
}

/// One parallel-engine configuration: a single service, shards spread over
/// opt.threads lanes, driven by closed-loop client chains (each chain issues
/// its next op from the previous completion callback; chain state hops
/// lanes with the callbacks, synchronized by the engine).
ReplicaResult run_parallel(const BenchOptions& opt, std::size_t shards,
                           std::size_t value_size, std::uint64_t seed) {
  StoreOptions sopt;
  sopt.shards = shards;
  sopt.seed = seed;
  sopt.engine_mode = lds::net::EngineMode::Parallel;
  sopt.engine_threads = opt.threads;
  StoreService svc(sopt);
  Client client(svc);
  const harness::WorkloadModel model = make_model(opt, value_size);

  struct Chain {
    Rng rng{1};
    std::size_t left = 0;
    std::size_t tenant = 0;
  };
  const std::size_t clients = kClientsPerShard * shards;
  std::vector<std::unique_ptr<Chain>> chains;
  for (std::size_t c = 0; c < clients; ++c) {
    auto chain = std::make_unique<Chain>();
    chain->rng = Rng(mix_seed(seed, 0xb0 + c));
    chain->left = opt.ops / clients + (c < opt.ops % clients ? 1 : 0);
    chain->tenant = model.tenant_of_client(c);
    chains.push_back(std::move(chain));
  }
  std::atomic<std::size_t> to_issue{opt.ops};
  std::function<void(Chain*)> next = [&](Chain* c) {
    if (c->left == 0) return;
    --c->left;
    to_issue.fetch_sub(1, std::memory_order_acq_rel);
    const std::string key =
        model.key_name(c->tenant, model.key_index(c->rng));
    auto complete = [&, c] { next(c); };
    if (c->rng.bernoulli(opt.read_fraction)) {
      client.get(key, [complete](const GetResult&) { complete(); });
    } else {
      client.put(key, c->rng.bytes(model.value_size(c->rng)),
                 [complete](const PutResult&) { complete(); });
    }
  };
  for (auto& c : chains) next(c.get());
  svc.quiesce(
      [&] { return to_issue.load(std::memory_order_acquire) == 0; });

  // Lanes have independent clocks; wall time is the metric (duration 0).
  return service_result(opt, svc);
}

/// One --remote configuration: opt.threads clients (each a `connections`-wide
/// pool), closed- or open-loop, verified against the client-observed history.
/// Verification is per tenant: each tenant's clients record into that
/// tenant's own history (tenant key namespaces are disjoint, so the split
/// loses no cross-op ordering), and every tenant must pass both checkers —
/// including runs with the read cache enabled, where cache-served reads are
/// recorded with their validated tags.
ReplicaResult run_remote(const BenchOptions& opt, std::size_t value_size,
                         std::size_t connections, std::uint64_t seed) {
  const harness::WorkloadModel model = make_model(opt, value_size);
  // One recorder per tenant; ClientRecorder decides how each outcome is
  // recorded.  This bench additionally counts every failed op as an error.
  std::vector<harness::ClientRecorder> tenants(opt.tenants);
  store::Histogram put_lat_ms, get_lat_ms;  // thread-safe (internal lock)
  const auto t0 = harness::Clock::now();
  const auto now_s = [&t0] { return harness::seconds_since(t0); };
  store::Client::ConnectOptions copts;
  copts.connections = connections;
  copts.cache.enabled = opt.cache;
  ReplicaResult out;  // duration stays 0: wall time is the remote metric
  out.ops = opt.ops;

  // Priming pass: the server may be long-lived, holding versions from
  // sessions this history never saw.  Writing every key once — strictly
  // before the concurrent phase — gives each a session-known baseline, so
  // every later read must return a recorded tag (freshness) and the
  // verifiers are exact despite the unknown prior state.  Keys are visited
  // in the workload's coldest-popularity-first order (not ascending index):
  // a uniform ascending walk would both ignore tenant namespaces and leave
  // the hottest keys primed *last*, right before measurement starts — a
  // warm-up bias the Zipfian workloads exist to avoid.  The primer client
  // never enables the cache; warming the measured clients' caches is the
  // measured run's own job.
  {
    Status st;
    const auto primer =
        store::Client::connect(opt.remote_host, opt.remote_port, &st);
    if (primer == nullptr) {
      std::fprintf(stderr, "remote connect failed: %s\n",
                   st.to_string().c_str());
      out.verified = false;
      return out;
    }
    Rng prng(mix_seed(seed, 0x9417));
    std::uint32_t seq = 0;
    for (const std::size_t k : model.keys_coldest_first()) {
      for (std::size_t t = 0; t < opt.tenants; ++t) {
        const std::string key = model.key_name(t, k);
        const Value value(prng.bytes(model.value_size(prng)));
        const double inv = now_s();
        store::PutResult r;
        primer->put(key, value, [&r](const store::PutResult& pr) { r = pr; });
        const double resp = now_s();
        tenants[t].record_put(key, make_op_id(0, ++seq), 0, inv, resp, r,
                              value);
      }
    }
  }

  std::atomic<bool> connect_failed{false};
  std::mutex cache_mu;  // guards the cache counters workers sum into `out`
  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < opt.threads; ++t) {
    workers.emplace_back([&, t] {
      Status st;
      const auto client = store::Client::connect(opt.remote_host,
                                                 opt.remote_port, &st, copts);
      if (client == nullptr) {
        std::fprintf(stderr, "remote connect failed: %s\n",
                     st.to_string().c_str());
        connect_failed.store(true, std::memory_order_release);
        return;
      }
      Rng rng(mix_seed(seed, 0xec0 + t));
      const NodeId me = static_cast<NodeId>(t + 1);
      const std::size_t tenant = model.tenant_of_client(t);
      harness::ClientRecorder& rec = tenants[tenant];
      std::uint32_t seq = 0;
      const std::size_t my_ops =
          opt.ops / opt.threads + (t < opt.ops % opt.threads ? 1 : 0);
      auto key_of = [&] { return model.key_name(tenant, model.key_index(rng)); };
      auto harvest = [&] {
        if (!opt.cache) return;
        std::lock_guard<std::mutex> lk(cache_mu);
        add_cache_stats(*client, &out);
      };

      if (opt.rate > 0) {
        // Open loop over the async completion-queue API: arrivals come due
        // on the offered-load clock, never gated on replies.  Latency is
        // (completion - INTENDED arrival), so queueing delay at saturation
        // is charged to the server, not hidden by a stalled submitter.
        struct Pending {
          std::string key;
          double sched = 0;
          Value value;
          bool is_put = false;
        };
        std::unordered_map<std::uint64_t, Pending> pend;
        auto& cq = client->completions();
        auto on_completion = [&](const store::Completion& c) {
          const double resp = now_s();
          const auto it = pend.find(c.handle);
          if (it == pend.end()) return;
          const Pending& p = it->second;
          const double lat = (resp - p.sched) * 1e3;
          if (p.is_put) {
            put_lat_ms.record(lat);
            rec.record_put(p.key, make_op_id(me, ++seq), me, p.sched, resp,
                           c.put, p.value);
          } else {
            get_lat_ms.record(lat);
            rec.record_get(p.key, make_op_id(me, ++seq), me, p.sched, resp,
                           c.get);
          }
          pend.erase(it);
        };
        const double interarrival =
            static_cast<double>(opt.threads) / opt.rate;
        double due = now_s();
        store::Completion c;
        for (std::size_t i = 0; i < my_ops; ++i) {
          due += opt.bursty ? rng.exponential(interarrival) : interarrival;
          while (now_s() < due) {
            if (cq.poll(&c)) {
              on_completion(c);
            } else {
              std::this_thread::sleep_for(std::chrono::microseconds(100));
            }
          }
          const std::string key = key_of();
          if (rng.bernoulli(opt.read_fraction)) {
            pend.emplace(client->async_get(key),
                         Pending{key, due, Value{}, false});
          } else {
            Value value(rng.bytes(model.value_size(rng)));
            const auto h = client->async_put(key, value);
            pend.emplace(h, Pending{key, due, std::move(value), true});
          }
        }
        while (cq.outstanding() > 0 && cq.wait(&c, 60.0)) on_completion(c);
        harvest();
        return;
      }

      for (std::size_t i = 0; i < my_ops; ++i) {
        const double inv = now_s();
        if (rng.bernoulli(opt.read_fraction)) {
          // A quarter of reads are multi_gets (they bypass the read cache);
          // cache A/B comparisons disable the mix so both runs measure the
          // same single-get path.
          if (opt.multi_get_mix && rng.bernoulli(0.25)) {
            std::vector<std::string> keys = {key_of(), key_of()};
            const auto rs = client->multi_get_sync(keys);
            const double resp = now_s();
            get_lat_ms.record((resp - inv) * 1e3);
            for (std::size_t k = 0; k < keys.size(); ++k) {
              rec.record_get(keys[k], make_op_id(me, ++seq), me, inv, resp,
                             rs[k]);
            }
          } else {
            const std::string key = key_of();
            store::GetResult r;
            client->get(key,
                        [&r](const store::GetResult& gr) { r = gr; });
            const double resp = now_s();
            get_lat_ms.record((resp - inv) * 1e3);
            rec.record_get(key, make_op_id(me, ++seq), me, inv, resp, r);
          }
        } else {
          const std::string key = key_of();
          const Value value(rng.bytes(model.value_size(rng)));
          store::PutResult r;
          client->put(key, value,
                      [&r](const store::PutResult& pr) { r = pr; });
          const double resp = now_s();
          put_lat_ms.record((resp - inv) * 1e3);
          rec.record_put(key, make_op_id(me, ++seq), me, inv, resp, r, value);
        }
      }
      harvest();
    });
  }
  for (auto& w : workers) w.join();

  if (connect_failed.load(std::memory_order_acquire)) {
    out.verified = false;
    return out;
  }
  for (std::size_t t = 0; t < tenants.size(); ++t) {
    harness::ClientRecorder& rec = tenants[t];
    const std::string who =
        tenants.size() > 1 ? "tenant " + std::to_string(t) : "remote run";
    const std::size_t errors = rec.counts().failed();
    if (errors > 0) {
      std::fprintf(stderr, "%s: %zu operations failed\n", who.c_str(),
                   errors);
    }
    rec.reconcile();
    const harness::HistoryVerdict v = harness::verify_history(rec.history());
    if (!v.atomicity.ok) {
      std::fprintf(stderr, "%s: ATOMICITY VIOLATION: %s\n", who.c_str(),
                   v.atomicity.violation.c_str());
    }
    if (!v.freshness.ok) {
      std::fprintf(stderr, "%s: FRESHNESS VIOLATION: %s\n", who.c_str(),
                   v.freshness.violation.c_str());
    }
    out.verified =
        out.verified && v.atomicity.ok && v.freshness.ok && errors == 0;
  }
  out.put_ms = summarize(put_lat_ms);
  out.get_ms = summarize(get_lat_ms);
  return out;
}

/// One sweep point's rows: the counts every run has, then the remote latency
/// summaries and the read-cache counters where the run has them.
void add_rows(bench::JsonReporter& json, const std::string& params,
              const BenchOptions& opt, const ReplicaResult& r, double wall) {
  json.add(params, "wall_ops_per_sec", static_cast<double>(r.ops) / wall);
  json.add(params, "wall_seconds", wall);
  json.add(params, "verified", r.verified ? 1 : 0);
  json.add(params, "batches", static_cast<double>(r.batches));
  json.add(params, "coalesced", static_cast<double>(r.coalesced));
  if (!opt.remote_host.empty()) {
    for (const auto& [op, l] : {std::pair{"put_ms_", r.put_ms},
                                std::pair{"get_ms_", r.get_ms}}) {
      const auto row = [&, op = op](const char* stat, double v) {
        std::string metric = op;
        metric += stat;
        json.add(params, metric, v);
      };
      row("count", static_cast<double>(l.count));
      row("mean", l.mean);
      row("p50", l.p50);
      row("p99", l.p99);
      row("p999", l.p999);
      row("max", l.max);
    }
  }
  if (opt.cache) {
    json.add(params, "cache_hits", static_cast<double>(r.cache_hits));
    json.add(params, "cache_misses", static_cast<double>(r.cache_misses));
    json.add(params, "cache_validation_rounds",
             static_cast<double>(r.cache_validations));
    json.add(params, "cache_invalidations",
             static_cast<double>(r.cache_invalidations));
    json.add(params, "wire_value_bytes_saved",
             static_cast<double>(r.bytes_saved));
  }
}

/// --compare-cache: same-seed cache-off vs cache-on A/B against a running
/// lds_served instance.  Every leg replays the identical op stream (keys,
/// mix, sizes — the cache consumes no Rng draws), so every delta is
/// attributable to the cache.  The A/B runs as kCachePairs alternating
/// off/on pairs against the one server: a single pair's get p99 cut spreads
/// more widely between same-seed runs than the gate's margin, and
/// alternating keeps server-side drift (history, allocator) out of the
/// comparison.  Each leg reports its rows under "cache=off|on pair=<i>
/// <workload>"; the A/B rows go under the workload alone: hit rate over all
/// cache-on legs, and the get p50/p99 improvement as the median of the
/// per-pair cuts.  When the workload qualifies (zipf-theta >= 0.99, reads
/// >= 90%) the gate is hit rate >= 80%, median p99 get improvement >= 30%
/// and bytes saved > 0; otherwise only the verifiers.  Every leg must
/// verify.  Exit status reflects the gate.
int run_compare_cache(BenchOptions opt, bench::JsonReporter& json) {
  constexpr int kCachePairs = 3;
  opt.multi_get_mix = false;  // measure the cached single-get path only
  const std::size_t value_size = opt.value_sizes.front();
  const std::size_t conns = opt.connections.front();

  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "zipf_theta=%g read_fraction=%g keys=%zu tenants=%zu "
                "value_dist=%s threads=%zu connections=%zu ops=%zu",
                opt.zipf_theta, opt.read_fraction, opt.keys, opt.tenants,
                make_model(opt, value_size).options().value_dist.spec()
                    .c_str(),
                opt.threads, conns, opt.ops);
  const std::string workload = buf;
  std::printf("compare-cache: %s seed=%llu pairs=%d\n", workload.c_str(),
              static_cast<unsigned long long>(opt.seed), kCachePairs);
  std::printf("\n%6s %10s %12s %12s %12s %10s\n", "pair", "cache",
              "get_p50_ms", "get_p99_ms", "wall_ops_s", "verified");

  auto improvement = [](double base, double now) {
    return base > 0 ? (base - now) / base : 0.0;
  };
  std::vector<double> p50_cuts, p99_cuts;
  std::uint64_t hits = 0, misses = 0, validations = 0, bytes_saved = 0;
  bool verified = true;
  for (int pair = 1; pair <= kCachePairs; ++pair) {
    ReplicaResult legs[2];  // [0] cache off, [1] cache on
    for (int on = 0; on < 2; ++on) {
      BenchOptions o = opt;
      o.cache = on == 1;
      const auto t0 = std::chrono::steady_clock::now();
      legs[on] = run_remote(o, value_size, conns, opt.seed);
      const double wall = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - t0)
                              .count();
      std::string params = on == 1 ? "cache=on" : "cache=off";
      params += " pair=" + std::to_string(pair) + " " + workload;
      add_rows(json, params, o, legs[on], wall);
      std::printf("%6d %10s %12.3f %12.3f %12.0f %10s\n", pair,
                  on == 1 ? "on" : "off", legs[on].get_ms.p50,
                  legs[on].get_ms.p99, static_cast<double>(opt.ops) / wall,
                  legs[on].verified ? "yes" : "NO");
      verified = verified && legs[on].verified;
    }
    p50_cuts.push_back(improvement(legs[0].get_ms.p50, legs[1].get_ms.p50));
    p99_cuts.push_back(improvement(legs[0].get_ms.p99, legs[1].get_ms.p99));
    hits += legs[1].cache_hits;
    misses += legs[1].cache_misses;
    validations += legs[1].cache_validations;
    bytes_saved += legs[1].bytes_saved;
  }
  auto median = [](std::vector<double> v) {
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
  };
  const double p50_improv = median(p50_cuts);
  const double p99_improv = median(p99_cuts);
  const std::uint64_t lookups = hits + misses;
  const double hit_rate =
      lookups > 0 ? static_cast<double>(hits) / static_cast<double>(lookups)
                  : 0;
  const bool gate_applicable =
      opt.zipf_theta >= 0.99 - 1e-9 && opt.read_fraction >= 0.9 - 1e-9;
  bool pass = verified;
  if (gate_applicable) {
    pass = pass && hit_rate >= 0.8 && p99_improv >= 0.3 && bytes_saved > 0;
  }
  json.add(workload, "hit_rate", hit_rate);
  json.add(workload, "get_p50_improvement", p50_improv);
  json.add(workload, "get_p99_improvement", p99_improv);
  json.add(workload, "gate_applicable", gate_applicable ? 1 : 0);
  json.add(workload, "gate_pass", pass ? 1 : 0);

  std::printf("\ncache: %llu hits / %llu misses (hit rate %.1f%%), "
              "%llu validation rounds, %llu value bytes kept off the wire\n",
              static_cast<unsigned long long>(hits),
              static_cast<unsigned long long>(misses), hit_rate * 100.0,
              static_cast<unsigned long long>(validations),
              static_cast<unsigned long long>(bytes_saved));
  std::printf("get p99 cut per pair:");
  for (const double c : p99_cuts) std::printf(" %.1f%%", c * 100.0);
  std::printf("\nget latency (median of pairs): p50 %+.1f%%, p99 %+.1f%% "
              "vs cache-off\n",
              -p50_improv * 100.0, -p99_improv * 100.0);
  std::printf("gate (%s): %s\n",
              gate_applicable
                  ? "hit>=80%, median p99 cut>=30%, bytes>0, verified"
                  : "verifiers only; workload below gate thresholds",
              pass ? "PASS" : "FAIL");
  return pass ? 0 : 1;
}

/// Strict TCP port parse: digits only, in [min_port, 65535] — no silent
/// u16 truncation of out-of-range values.
bool parse_port(const char* s, unsigned long min_port, std::uint16_t* out) {
  char* end = nullptr;
  const unsigned long v = std::strtoul(s, &end, 10);
  if (end == s || *end != '\0' || v < min_port || v > 65535) return false;
  *out = static_cast<std::uint16_t>(v);
  return true;
}

bool parse_size_list(const char* s, std::vector<std::size_t>* out) {
  out->clear();
  std::string token;
  for (const char* p = s;; ++p) {
    if (*p == ',' || *p == '\0') {
      if (token.empty()) return false;
      char* end = nullptr;
      const unsigned long long v = std::strtoull(token.c_str(), &end, 10);
      if (end == token.c_str() || *end != '\0' || v == 0) return false;
      out->push_back(static_cast<std::size_t>(v));
      token.clear();
      if (*p == '\0') break;
    } else {
      token += *p;
    }
  }
  return !out->empty();
}

void usage(const char* argv0) {
  std::printf(
      "usage: %s [options]\n"
      "  --engine sim|parallel sim: one deterministic replica per thread;\n"
      "                        parallel: one service over --threads lanes\n"
      "  --remote HOST:PORT    drive a running lds_served instance instead\n"
      "                        (--threads clients; shards/backend come from\n"
      "                        the server)\n"
      "  --connections LIST    remote: per-client connection-pool sizes to\n"
      "                        sweep (1)\n"
      "  --rate R              remote: open-loop offered load, total ops/s\n"
      "                        over the async API (0 = closed loop)\n"
      "  --bursty              remote open loop: Poisson arrivals instead\n"
      "                        of fixed interarrival spacing\n"
      "  --shards LIST         comma-separated shard counts (1,2,4,8)\n"
      "  --value-sizes LIST    comma-separated value sizes in bytes (256)\n"
      "  --threads N           service replicas on OS threads (1)\n"
      "  --ops N               client ops per replica per config (4000)\n"
      "  --keys N              distinct keys per tenant (32)\n"
      "  --read-fraction X     fraction of ops that are gets (0.5)\n"
      "  --zipf-theta X        key skew in [0,1): 0 uniform, 0.99 YCSB (0)\n"
      "  --value-dist SPEC     fixed:N | uniform:LO:HI |\n"
      "                        bimodal:SMALL:LARGE:PCT (fixed per\n"
      "                        --value-sizes entry)\n"
      "  --tenants N           disjoint tenant key namespaces; clients/\n"
      "                        threads round-robin over them (1)\n"
      "  --compare-cache       remote: same-seed client read cache off-vs-on\n"
      "                        A/B, three alternating pairs; exit with the\n"
      "                        perf-gate verdict\n"
      "  --json PATH           write the result rows (JsonReporter shape)\n"
      "  --seed N              master seed (1)\n",
      argv0);
}

}  // namespace

int main(int argc, char** argv) {
  BenchOptions opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    bool ok = true;
    if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
      return 0;
    } else if (arg == "--engine") {
      const char* v = next();
      auto m = v ? lds::net::parse_engine_mode(v)
                 : std::optional<lds::net::EngineMode>{};
      if (!m) {
        std::fprintf(stderr, "unknown engine '%s'\n", v ? v : "");
        return 2;
      }
      opt.engine = *m;
    } else if (arg == "--remote") {
      const char* v = next();
      ok = v != nullptr;
      if (ok) {
        const std::string hp = v;
        const auto colon = hp.rfind(':');
        ok = colon != std::string::npos && colon > 0 && colon + 1 < hp.size();
        if (ok) {
          opt.remote_host = hp.substr(0, colon);
          ok = parse_port(hp.c_str() + colon + 1, 1, &opt.remote_port);
        }
      }
    } else if (arg == "--shards") {
      const char* v = next();
      ok = v && parse_size_list(v, &opt.shards);
    } else if (arg == "--connections") {
      const char* v = next();
      ok = v && parse_size_list(v, &opt.connections);
    } else if (arg == "--rate") {
      const char* v = next();
      ok = v != nullptr && (opt.rate = std::strtod(v, nullptr)) > 0;
    } else if (arg == "--bursty") {
      opt.bursty = true;
    } else if (arg == "--value-sizes") {
      const char* v = next();
      ok = v && parse_size_list(v, &opt.value_sizes);
    } else if (arg == "--threads") {
      const char* v = next();
      ok = v && (opt.threads = std::strtoull(v, nullptr, 10)) >= 1;
    } else if (arg == "--ops") {
      const char* v = next();
      ok = v && (opt.ops = std::strtoull(v, nullptr, 10)) >= 1;
    } else if (arg == "--keys") {
      const char* v = next();
      ok = v && (opt.keys = std::strtoull(v, nullptr, 10)) >= 1;
    } else if (arg == "--read-fraction") {
      const char* v = next();
      ok = v != nullptr;
      if (ok) opt.read_fraction = std::strtod(v, nullptr);
    } else if (arg == "--zipf-theta") {
      const char* v = next();
      ok = v != nullptr;
      if (ok) opt.zipf_theta = std::strtod(v, nullptr);
    } else if (arg == "--value-dist") {
      const char* v = next();
      ok = v != nullptr && *v != '\0';
      if (ok) opt.value_dist = v;
    } else if (arg == "--tenants") {
      const char* v = next();
      ok = v && (opt.tenants = std::strtoull(v, nullptr, 10)) >= 1;
    } else if (arg == "--compare-cache") {
      opt.compare_cache = true;
    } else if (arg == "--json") {
      ok = next() != nullptr;  // JsonReporter reads the path from argv
    } else if (arg == "--seed") {
      const char* v = next();
      ok = v != nullptr;
      if (ok) opt.seed = std::strtoull(v, nullptr, 10);
    } else {
      std::fprintf(stderr, "unknown option '%s'\n", arg.c_str());
      usage(argv[0]);
      return 2;
    }
    if (!ok) {
      std::fprintf(stderr, "bad or missing value for '%s'\n", arg.c_str());
      return 2;
    }
  }

  if (!(opt.zipf_theta >= 0.0 && opt.zipf_theta < 1.0)) {
    std::fprintf(stderr, "--zipf-theta must be in [0, 1)\n");
    return 2;
  }
  if (!(opt.read_fraction >= 0.0 && opt.read_fraction <= 1.0)) {
    std::fprintf(stderr, "--read-fraction must be in [0, 1]\n");
    return 2;
  }
  if (!opt.value_dist.empty() &&
      !harness::ValueSizeDist::parse(opt.value_dist).has_value()) {
    std::fprintf(stderr, "--value-dist must be fixed:N, uniform:LO:HI or "
                         "bimodal:SMALL:LARGE:PCT\n");
    return 2;
  }
  const bool remote = !opt.remote_host.empty();
  if (opt.compare_cache && !remote) {
    std::fprintf(stderr, "--compare-cache requires --remote HOST:PORT\n");
    return 2;
  }

  bench::JsonReporter json(argc, argv,
                           opt.compare_cache ? "lds_store_bench_workloads"
                                             : "lds_store_bench");
  json.add("", "host_cpus", std::thread::hardware_concurrency());
  if (opt.compare_cache) return run_compare_cache(opt, json);

  const bool parallel = opt.engine == lds::net::EngineMode::Parallel;
  const char* engine_name =
      remote ? "remote" : lds::net::engine_mode_name(opt.engine);
  std::printf("lds_store_bench: engine=%s threads=%zu ops%s=%zu keys=%zu "
              "clients/shard=%zu read-fraction=%.2f seed=%llu\n",
              engine_name, opt.threads, parallel || remote ? "" : "/replica",
              opt.ops, opt.keys, kClientsPerShard, opt.read_fraction,
              static_cast<unsigned long long>(opt.seed));
  if (opt.zipf_theta > 0 || opt.tenants > 1 || !opt.value_dist.empty()) {
    std::printf("workload: zipf-theta=%g tenants=%zu value-dist=%s\n",
                opt.zipf_theta, opt.tenants,
                opt.value_dist.empty() ? "(fixed)" : opt.value_dist.c_str());
  }
  if (remote) {
    std::printf("remote target: %s:%u (server chooses shards/backend; "
                "verification is client-observed%s)\n",
                opt.remote_host.c_str(), opt.remote_port,
                opt.tenants > 1 ? ", per tenant" : "");
    if (opt.rate > 0) {
      std::printf("open loop: %.0f ops/s offered%s, async completion-queue "
                  "API, latency from intended arrival\n",
                  opt.rate, opt.bursty ? ", Poisson arrivals" : "");
    }
  }
  std::printf("\n");
  std::printf("%8s %6s %12s %12s %14s %10s %10s %10s %12s %8s %9s\n",
              "shards", "conns", "value_size", "sim_dur", "ops_per_unit",
              "batches", "coalesced", "wall_s", "wall_ops_s", "p99_ms",
              "verified");

  bool all_verified = true;
  // Remote mode sweeps value sizes x connections: the shard count lives
  // server-side.  Local engines ignore the connections dimension.
  const std::vector<std::size_t> shard_sweep =
      remote ? std::vector<std::size_t>{0} : opt.shards;
  const std::vector<std::size_t> conn_sweep =
      remote ? opt.connections : std::vector<std::size_t>{1};
  for (std::size_t value_size : opt.value_sizes) {
    for (std::size_t shards : shard_sweep) {
     for (std::size_t conns : conn_sweep) {
      const auto wall_start = std::chrono::steady_clock::now();
      std::vector<ReplicaResult> results;
      if (remote) {
        results.push_back(run_remote(opt, value_size, conns, opt.seed));
      } else if (parallel) {
        results.push_back(run_parallel(opt, shards, value_size, opt.seed));
      } else {
        results.resize(opt.threads);
        std::vector<std::thread> workers;
        for (std::size_t t = 0; t < opt.threads; ++t) {
          workers.emplace_back([&, t] {
            results[t] = run_replica(
                opt, shards, value_size,
                opt.threads == 1 ? opt.seed : mix_seed(opt.seed, t));
          });
        }
        for (auto& w : workers) w.join();
      }
      const double wall =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        wall_start)
              .count();

      // Summed over the replicas; the latencies come from the first (remote
      // runs have exactly one).
      ReplicaResult total;
      total.put_ms = results[0].put_ms;
      total.get_ms = results[0].get_ms;
      double sim_tput = 0;
      for (const auto& r : results) {
        if (r.duration > 0) {
          sim_tput += static_cast<double>(r.ops) / r.duration;
        }
        total.duration = std::max(total.duration, r.duration);
        total.ops += r.ops;
        total.batches += r.batches;
        total.coalesced += r.coalesced;
        total.verified = total.verified && r.verified;
      }
      std::printf(
          "%8zu %6zu %12zu %12.1f %14.3f %10llu %10llu %10.2f %12.0f "
          "%8.2f %9s\n",
          shards, conns, value_size, total.duration, sim_tput,
          static_cast<unsigned long long>(total.batches),
          static_cast<unsigned long long>(total.coalesced), wall,
          static_cast<double>(total.ops) / wall,
          std::max(total.put_ms.p99, total.get_ms.p99),
          total.verified ? "yes" : "NO");
      all_verified = all_verified && total.verified;

      char params[160];
      std::snprintf(params, sizeof(params),
                    "engine=%s shards=%zu threads=%zu connections=%zu "
                    "rate=%g value_size=%zu",
                    engine_name, shards, opt.threads, conns, opt.rate,
                    value_size);
      if (!parallel && !remote) json.add(params, "ops_per_sim_unit", sim_tput);
      add_rows(json, params, opt, total, wall);
     }
    }
  }

  if (!all_verified) {
    std::fprintf(stderr, "VERIFICATION FAILED: a shard history violated "
                         "atomicity/freshness\n");
    return 1;
  }
  return 0;
}

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
// configuration and embedded in --json.  --require-scaling X fails the run
// unless remote throughput at the largest --connections value is at least
// X times the smallest's (the CI gate for connection-count scaling).
//
// The JSON output carries one record per configuration (params, throughput,
// wall time) plus the full MetricsRegistry snapshot of the first replica of
// the largest configuration — batching/coalescing counters included — so CI
// can track the perf trajectory and assert batching is actually engaged.
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <chrono>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "harness/recorder.h"
#include "harness/workload.h"
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
  std::size_t clients_per_shard = 4;
  double read_fraction = 0.5;
  double batch_window = 0.5;
  bool exponential_latency = false;
  std::uint64_t seed = 1;
  std::string json_path;
  std::string remote_host;  ///< non-empty = drive a served instance
  std::uint16_t remote_port = 0;
  std::vector<std::size_t> connections = {1};  ///< remote: pool-size sweep
  double rate = 0;        ///< remote: open-loop offered load, ops/s (0 = closed)
  bool bursty = false;    ///< remote: Poisson arrivals instead of fixed spacing
  double require_scaling = 0;  ///< remote: min tput ratio largest/smallest pool
  // Workload engine (shared with lds_stress via harness/workload.h).
  double zipf_theta = 0;    ///< key skew: 0 uniform, 0.99 = YCSB default
  std::string value_dist;   ///< "" = fixed at the swept value size
  std::size_t tenants = 1;  ///< disjoint key namespaces, threads round-robin
  std::size_t tenant_inflight = 0;  ///< open loop: per-client admission (0=∞)
  // Client read cache (version-validated tag-only rounds).
  bool cache = false;
  double cache_ttl = 0;
  std::size_t cache_capacity = 4096;
  std::string compare_cache_path;  ///< remote: cache off-vs-on A/B, JSON out
  bool multi_get_mix = true;  ///< closed loop: every 4th read is a multi_get
};

struct ReplicaResult {
  double duration = 0;  ///< sim time from first op to last completion
  std::size_t ops = 0;
  std::uint64_t batches = 0;
  std::uint64_t coalesced = 0;
  bool verified = true;  ///< every shard history passed both checkers
  std::string metrics_json;
  std::string latency_json;  ///< remote: {"put_ms":{...},"get_ms":{...}}
  double p99_ms = 0;         ///< remote: worse of put/get p99, for the table
  double get_p50_ms = 0, get_p99_ms = 0;  ///< remote: get-only percentiles
  /// Client read-cache counters, summed over the driving clients.
  std::uint64_t cache_hits = 0, cache_misses = 0, cache_validations = 0,
                cache_invalidations = 0, bytes_saved = 0;
  std::string client_metrics_json;  ///< one client's registry, cache runs
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

store::CacheOptions bench_cache(const BenchOptions& opt) {
  store::CacheOptions c;
  c.enabled = opt.cache;
  c.ttl = opt.cache_ttl;
  c.capacity = opt.cache_capacity;
  return c;
}

void add_cache_stats(const Client& client, ReplicaResult* out) {
  const auto& m = client.metrics();
  out->cache_hits += m.counter_total("cache_hits");
  out->cache_misses += m.counter_total("cache_misses");
  out->cache_validations += m.counter_total("cache_validation_rounds");
  out->cache_invalidations += m.counter_total("cache_invalidations");
  out->bytes_saved += m.counter_total("wire_value_bytes_saved");
}

std::string histogram_json(const lds::store::Histogram& h) {
  char buf[192];
  std::snprintf(buf, sizeof(buf),
                "{\"count\":%llu,\"mean\":%.3f,\"p50\":%.3f,\"p99\":%.3f,"
                "\"p999\":%.3f,\"max\":%.3f}",
                static_cast<unsigned long long>(h.count()), h.mean(),
                h.percentile(0.5), h.percentile(0.99), h.percentile(0.999),
                h.max());
  return buf;
}

/// The in-process tail both engines share: service counters, the verdict
/// over every shard history (atomicity + freshness), and the cache stats.
ReplicaResult service_result(const BenchOptions& opt, StoreService& svc,
                             const Client& client) {
  ReplicaResult out;
  out.ops = opt.ops;
  out.batches = svc.metrics().counter_total("batches");
  out.coalesced = svc.metrics().counter_total("puts_coalesced");
  for (std::size_t s = 0; s < svc.num_shards(); ++s) {
    out.verified =
        out.verified && harness::verify_history(svc.shard_history(s)).ok();
  }
  out.metrics_json = svc.metrics().to_json();
  if (opt.cache) {
    add_cache_stats(client, &out);
    out.client_metrics_json = client.metrics().to_json();
  }
  return out;
}

ReplicaResult run_replica(const BenchOptions& opt, std::size_t shards,
                          std::size_t value_size, std::uint64_t seed) {
  StoreOptions sopt;
  sopt.shards = shards;
  sopt.batch_window = opt.batch_window;
  sopt.exponential_latency = opt.exponential_latency;
  sopt.seed = seed;
  StoreService svc(sopt);
  Client client(svc, bench_cache(opt));
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
  const std::size_t clients = opt.clients_per_shard * shards;
  for (std::size_t c = 0; c < clients; ++c) {
    svc.sim().at(0.0, [&next, t = model.tenant_of_client(c)] { next(t); });
  }
  svc.quiesce([&] { return remaining == 0; });

  ReplicaResult out = service_result(opt, svc, client);
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
  sopt.batch_window = opt.batch_window;
  sopt.exponential_latency = opt.exponential_latency;
  sopt.seed = seed;
  sopt.engine_mode = lds::net::EngineMode::Parallel;
  sopt.engine_threads = opt.threads;
  StoreService svc(sopt);
  Client client(svc, bench_cache(opt));
  const harness::WorkloadModel model = make_model(opt, value_size);

  struct Chain {
    Rng rng{1};
    std::size_t left = 0;
    std::size_t tenant = 0;
  };
  const std::size_t clients = opt.clients_per_shard * shards;
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
  return service_result(opt, svc, client);
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
  copts.cache = bench_cache(opt);
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
        if (out.client_metrics_json.empty()) {
          out.client_metrics_json = client->metrics().to_json();
        }
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
          // Per-tenant admission: a tenant's client stops submitting past
          // its inflight cap and drains instead, so one hot tenant cannot
          // queue unboundedly ahead of the others.  Late arrivals are still
          // charged from their INTENDED time (the due clock keeps running).
          while (opt.tenant_inflight > 0 &&
                 pend.size() >= opt.tenant_inflight) {
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
  out.latency_json = "{\"put_ms\":" + histogram_json(put_lat_ms) +
                     ",\"get_ms\":" + histogram_json(get_lat_ms) + "}";
  out.p99_ms = std::max(put_lat_ms.percentile(0.99),
                        get_lat_ms.percentile(0.99));
  out.get_p50_ms = get_lat_ms.percentile(0.5);
  out.get_p99_ms = get_lat_ms.percentile(0.99);
  return out;
}

/// --compare-cache PATH: same-seed cache-off vs cache-on A/B against a
/// running lds_served instance.  Both runs replay the identical op stream
/// (keys, mix, sizes — the cache consumes no Rng draws), so every delta is
/// attributable to the cache.  Emits one JSON document with hit rate,
/// get p50/p99 deltas, wire bytes saved, per-run verifier verdicts, and —
/// when the workload qualifies (zipf-theta >= 0.99, reads >= 90%) — the
/// pass/fail perf gate (hit rate >= 80%, p99 get improvement >= 30%,
/// bytes saved > 0).  Exit status reflects the gate.
int run_compare_cache(BenchOptions opt) {
  opt.multi_get_mix = false;  // measure the cached single-get path only
  const std::size_t value_size = opt.value_sizes.front();
  const std::size_t conns = opt.connections.front();

  BenchOptions off = opt;
  off.cache = false;
  BenchOptions on = opt;
  on.cache = true;

  std::printf("compare-cache: zipf-theta=%.2f read-fraction=%.2f keys=%zu "
              "tenants=%zu threads=%zu ops=%zu value-size=%zu ttl=%g "
              "capacity=%zu seed=%llu\n",
              opt.zipf_theta, opt.read_fraction, opt.keys, opt.tenants,
              opt.threads, opt.ops, value_size, opt.cache_ttl,
              opt.cache_capacity,
              static_cast<unsigned long long>(opt.seed));

  auto timed = [&](const BenchOptions& o, double* wall) {
    const auto t0 = std::chrono::steady_clock::now();
    ReplicaResult r = run_remote(o, value_size, conns, opt.seed);
    *wall = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          t0)
                .count();
    return r;
  };
  double wall_off = 0, wall_on = 0;
  const ReplicaResult roff = timed(off, &wall_off);
  const ReplicaResult ron = timed(on, &wall_on);

  const std::uint64_t lookups = ron.cache_hits + ron.cache_misses;
  const double hit_rate =
      lookups > 0 ? static_cast<double>(ron.cache_hits) /
                        static_cast<double>(lookups)
                  : 0;
  auto improvement = [](double base, double now) {
    return base > 0 ? (base - now) / base : 0.0;
  };
  const double p50_improv = improvement(roff.get_p50_ms, ron.get_p50_ms);
  const double p99_improv = improvement(roff.get_p99_ms, ron.get_p99_ms);
  const bool gate_applicable =
      opt.zipf_theta >= 0.99 - 1e-9 && opt.read_fraction >= 0.9 - 1e-9;
  bool pass = roff.verified && ron.verified;
  if (gate_applicable) {
    pass = pass && hit_rate >= 0.8 && p99_improv >= 0.3 &&
           ron.bytes_saved > 0;
  }

  std::printf("\n%12s %12s %12s %12s %10s\n", "run", "get_p50_ms",
              "get_p99_ms", "wall_ops_s", "verified");
  std::printf("%12s %12.3f %12.3f %12.0f %10s\n", "cache-off",
              roff.get_p50_ms, roff.get_p99_ms,
              static_cast<double>(opt.ops) / wall_off,
              roff.verified ? "yes" : "NO");
  std::printf("%12s %12.3f %12.3f %12.0f %10s\n", "cache-on", ron.get_p50_ms,
              ron.get_p99_ms, static_cast<double>(opt.ops) / wall_on,
              ron.verified ? "yes" : "NO");
  std::printf("\ncache: %llu hits / %llu misses (hit rate %.1f%%), "
              "%llu validation rounds, %llu value bytes kept off the wire\n",
              static_cast<unsigned long long>(ron.cache_hits),
              static_cast<unsigned long long>(ron.cache_misses),
              hit_rate * 100.0,
              static_cast<unsigned long long>(ron.cache_validations),
              static_cast<unsigned long long>(ron.bytes_saved));
  std::printf("get latency: p50 %+.1f%%, p99 %+.1f%% vs cache-off\n",
              -p50_improv * 100.0, -p99_improv * 100.0);
  std::printf("gate (%s): %s\n",
              gate_applicable ? "hit>=80%, p99 cut>=30%, bytes>0, verified"
                              : "verifiers only; workload below gate "
                                "thresholds",
              pass ? "PASS" : "FAIL");

  char buf[512];
  std::string json = "{\"bench\":\"lds_store_bench_workloads\",";
  std::snprintf(buf, sizeof(buf),
                "\"workload\":{\"zipf_theta\":%.3f,\"read_fraction\":%.3f,"
                "\"keys\":%zu,\"tenants\":%zu,\"value_size\":%zu,"
                "\"value_dist\":\"%s\",\"rate\":%.1f,\"bursty\":%s,"
                "\"threads\":%zu,\"connections\":%zu,\"ops\":%zu,"
                "\"seed\":%llu},",
                opt.zipf_theta, opt.read_fraction, opt.keys, opt.tenants,
                value_size,
                make_model(opt, value_size).options().value_dist.spec()
                    .c_str(),
                opt.rate, opt.bursty ? "true" : "false", opt.threads, conns,
                opt.ops, static_cast<unsigned long long>(opt.seed));
  json += buf;
  std::snprintf(buf, sizeof(buf),
                "\"cache\":{\"ttl\":%g,\"capacity\":%zu},", opt.cache_ttl,
                opt.cache_capacity);
  json += buf;
  auto run_json = [&](const char* name, const ReplicaResult& r,
                      double wall) {
    std::snprintf(buf, sizeof(buf),
                  "\"%s\":{\"get_p50_ms\":%.4f,\"get_p99_ms\":%.4f,"
                  "\"wall_seconds\":%.3f,\"wall_ops_per_sec\":%.1f,"
                  "\"verified\":%s,\"latency\":",
                  name, r.get_p50_ms, r.get_p99_ms, wall,
                  static_cast<double>(opt.ops) / wall,
                  r.verified ? "true" : "false");
    json += buf;
    json += r.latency_json.empty() ? "{}" : r.latency_json;
    json += "}";
  };
  run_json("cache_off", roff, wall_off);
  json += ",";
  run_json("cache_on", ron, wall_on);
  std::snprintf(buf, sizeof(buf),
                ",\"cache_counters\":{\"hits\":%llu,\"misses\":%llu,"
                "\"hit_rate\":%.4f,\"validation_rounds\":%llu,"
                "\"invalidations\":%llu,\"wire_value_bytes_saved\":%llu}",
                static_cast<unsigned long long>(ron.cache_hits),
                static_cast<unsigned long long>(ron.cache_misses), hit_rate,
                static_cast<unsigned long long>(ron.cache_validations),
                static_cast<unsigned long long>(ron.cache_invalidations),
                static_cast<unsigned long long>(ron.bytes_saved));
  json += buf;
  std::snprintf(buf, sizeof(buf),
                ",\"deltas\":{\"get_p50_improvement\":%.4f,"
                "\"get_p99_improvement\":%.4f}"
                ",\"gate\":{\"applicable\":%s,\"hit_rate_min\":0.8,"
                "\"p99_improvement_min\":0.3,\"pass\":%s}}\n",
                p50_improv, p99_improv, gate_applicable ? "true" : "false",
                pass ? "true" : "false");
  json += buf;
  if (!ron.client_metrics_json.empty()) {
    // Splice the full client registry in before the closing brace.
    json.erase(json.size() - 2);  // strip "}\n"
    json += ",\"client_metrics\":" + ron.client_metrics_json + "}\n";
  }

  std::FILE* f = std::fopen(opt.compare_cache_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n",
                 opt.compare_cache_path.c_str());
    return 2;
  }
  std::fputs(json.c_str(), f);
  std::fclose(f);
  std::printf("json written to %s\n", opt.compare_cache_path.c_str());
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
      "  --require-scaling X   remote: fail unless throughput at the\n"
      "                        largest --connections value is >= X times\n"
      "                        the smallest's\n"
      "  --shards LIST         comma-separated shard counts (1,2,4,8)\n"
      "  --value-sizes LIST    comma-separated value sizes in bytes (256)\n"
      "  --threads N           service replicas on OS threads (1)\n"
      "  --ops N               client ops per replica per config (4000)\n"
      "  --keys N              distinct keys per tenant (32)\n"
      "  --clients N           closed-loop clients per shard (4)\n"
      "  --read-fraction X     fraction of ops that are gets (0.5)\n"
      "  --read-pct N          same as --read-fraction N/100\n"
      "  --zipf-theta X        key skew in [0,1): 0 uniform, 0.99 YCSB (0)\n"
      "  --value-dist SPEC     fixed:N | uniform:LO:HI |\n"
      "                        bimodal:SMALL:LARGE:PCT (fixed per\n"
      "                        --value-sizes entry)\n"
      "  --tenants N           disjoint tenant key namespaces; clients/\n"
      "                        threads round-robin over them (1)\n"
      "  --tenant-inflight N   remote open loop: per-client admission cap,\n"
      "                        outstanding ops (0 = unlimited)\n"
      "  --cache               enable the client read cache (version-\n"
      "                        validated tag-only rounds)\n"
      "  --cache-ttl X         cache: serve without validating for X s (0)\n"
      "  --cache-capacity N    cache: LRU entry bound (4096)\n"
      "  --compare-cache PATH  remote: same-seed cache off-vs-on A/B; write\n"
      "                        the combined JSON (BENCH_workloads.json) and\n"
      "                        exit with the perf-gate verdict\n"
      "  --batch-window X      put-coalescing window in sim units (0.5)\n"
      "  --exponential         exponential instead of fixed link delays\n"
      "  --json PATH           write machine-readable results\n"
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
    } else if (arg == "--require-scaling") {
      const char* v = next();
      ok = v != nullptr && (opt.require_scaling = std::strtod(v, nullptr)) > 0;
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
    } else if (arg == "--clients") {
      const char* v = next();
      ok = v && (opt.clients_per_shard = std::strtoull(v, nullptr, 10)) >= 1;
    } else if (arg == "--read-fraction") {
      const char* v = next();
      ok = v != nullptr;
      if (ok) opt.read_fraction = std::strtod(v, nullptr);
    } else if (arg == "--read-pct") {
      const char* v = next();
      ok = v != nullptr;
      if (ok) opt.read_fraction = std::strtod(v, nullptr) / 100.0;
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
    } else if (arg == "--tenant-inflight") {
      const char* v = next();
      ok = v != nullptr;
      if (ok) opt.tenant_inflight = std::strtoull(v, nullptr, 10);
    } else if (arg == "--cache") {
      opt.cache = true;
    } else if (arg == "--cache-ttl") {
      const char* v = next();
      ok = v != nullptr;
      if (ok) opt.cache_ttl = std::strtod(v, nullptr);
    } else if (arg == "--cache-capacity") {
      const char* v = next();
      ok = v && (opt.cache_capacity = std::strtoull(v, nullptr, 10)) >= 1;
    } else if (arg == "--compare-cache") {
      const char* v = next();
      ok = v != nullptr && *v != '\0';
      if (ok) opt.compare_cache_path = v;
    } else if (arg == "--batch-window") {
      const char* v = next();
      ok = v != nullptr;
      if (ok) opt.batch_window = std::strtod(v, nullptr);
    } else if (arg == "--exponential") {
      opt.exponential_latency = true;
    } else if (arg == "--json") {
      const char* v = next();
      ok = v != nullptr;
      if (ok) opt.json_path = v;
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
  if (!opt.compare_cache_path.empty()) {
    if (opt.remote_host.empty()) {
      std::fprintf(stderr, "--compare-cache requires --remote HOST:PORT\n");
      return 2;
    }
    return run_compare_cache(opt);
  }

  const bool remote = !opt.remote_host.empty();
  const bool parallel = opt.engine == lds::net::EngineMode::Parallel;
  const char* engine_name =
      remote ? "remote" : lds::net::engine_mode_name(opt.engine);
  std::printf("lds_store_bench: engine=%s threads=%zu ops%s=%zu keys=%zu "
              "clients/shard=%zu read-fraction=%.2f batch-window=%.2f "
              "seed=%llu\n",
              engine_name, opt.threads, parallel || remote ? "" : "/replica",
              opt.ops, opt.keys, opt.clients_per_shard, opt.read_fraction,
              opt.batch_window, static_cast<unsigned long long>(opt.seed));
  if (opt.zipf_theta > 0 || opt.tenants > 1 || !opt.value_dist.empty() ||
      opt.cache) {
    std::printf("workload: zipf-theta=%g tenants=%zu value-dist=%s "
                "cache=%s ttl=%g capacity=%zu\n",
                opt.zipf_theta, opt.tenants,
                opt.value_dist.empty() ? "(fixed)" : opt.value_dist.c_str(),
                opt.cache ? "on" : "off", opt.cache_ttl, opt.cache_capacity);
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

  std::string json = "{\"bench\":\"lds_store_bench\",\"configs\":[";
  bool all_verified = true;
  // Snapshot source: the largest shard count seen (not sweep order, which
  // the user may pass descending).
  std::string snapshot_metrics;
  std::size_t snapshot_shards = 0;
  bool first_cfg = true;
  // Remote mode sweeps value sizes x connections: the shard count lives
  // server-side.  Local engines ignore the connections dimension.
  const std::vector<std::size_t> shard_sweep =
      remote ? std::vector<std::size_t>{0} : opt.shards;
  const std::vector<std::size_t> conn_sweep =
      remote ? opt.connections : std::vector<std::size_t>{1};
  // value_size -> (connections -> wall ops/s), for --require-scaling.
  std::map<std::size_t, std::map<std::size_t, double>> scaling;
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

      double agg_tput = 0;
      double max_dur = 0;
      std::size_t total_ops = 0;
      std::uint64_t batches = 0, coalesced = 0;
      bool verified = true;
      for (const auto& r : results) {
        if (r.duration > 0) {
          agg_tput += static_cast<double>(r.ops) / r.duration;
        }
        max_dur = std::max(max_dur, r.duration);
        total_ops += r.ops;
        batches += r.batches;
        coalesced += r.coalesced;
        verified = verified && r.verified;
      }
      const double wall_ops_s = static_cast<double>(total_ops) / wall;
      const double p99_ms = results.empty() ? 0 : results[0].p99_ms;
      std::printf(
          "%8zu %6zu %12zu %12.1f %14.3f %10llu %10llu %10.2f %12.0f "
          "%8.2f %9s\n",
          shards, conns, value_size, max_dur, agg_tput,
          static_cast<unsigned long long>(batches),
          static_cast<unsigned long long>(coalesced), wall, wall_ops_s,
          p99_ms, verified ? "yes" : "NO");
      all_verified = all_verified && verified;
      if (remote) scaling[value_size][conns] = wall_ops_s;

      char buf[448];
      std::snprintf(buf, sizeof(buf),
                    "%s{\"engine\":\"%s\",\"shards\":%zu,\"threads\":%zu,"
                    "\"connections\":%zu,\"rate\":%.1f,"
                    "\"value_size\":%zu,"
                    "\"ops\":%zu,\"metric\":\"%s\","
                    "\"value\":%.6f,\"batches\":%llu,\"coalesced\":%llu,"
                    "\"wall_seconds\":%.3f,\"wall_ops_per_sec\":%.3f,"
                    "\"verified\":%s",
                    first_cfg ? "" : ",", engine_name, shards,
                    opt.threads, conns, opt.rate, value_size, total_ops,
                    parallel || remote ? "ops_per_sec_wall"
                                       : "ops_per_sim_unit",
                    parallel || remote ? wall_ops_s : agg_tput,
                    static_cast<unsigned long long>(batches),
                    static_cast<unsigned long long>(coalesced), wall,
                    wall_ops_s, verified ? "true" : "false");
      json += buf;
      std::snprintf(buf, sizeof(buf),
                    ",\"zipf_theta\":%.3f,\"tenants\":%zu,\"cache\":%s",
                    opt.zipf_theta, opt.tenants,
                    opt.cache ? "true" : "false");
      json += buf;
      if (opt.cache) {
        std::uint64_t hits = 0, misses = 0, validations = 0, saved = 0;
        for (const auto& r : results) {
          hits += r.cache_hits;
          misses += r.cache_misses;
          validations += r.cache_validations;
          saved += r.bytes_saved;
        }
        std::snprintf(buf, sizeof(buf),
                      ",\"cache_hits\":%llu,\"cache_misses\":%llu,"
                      "\"cache_validation_rounds\":%llu,"
                      "\"wire_value_bytes_saved\":%llu",
                      static_cast<unsigned long long>(hits),
                      static_cast<unsigned long long>(misses),
                      static_cast<unsigned long long>(validations),
                      static_cast<unsigned long long>(saved));
        json += buf;
        if (!results[0].client_metrics_json.empty()) {
          json += ",\"client_metrics\":" + results[0].client_metrics_json;
        }
      }
      if (remote && !results.empty() && !results[0].latency_json.empty()) {
        json += ",\"latency\":" + results[0].latency_json;
      }
      json += "}";
      first_cfg = false;
      if (shards >= snapshot_shards) {
        snapshot_shards = shards;
        snapshot_metrics = results[0].metrics_json;
      }
     }
    }
  }
  json += "],\"metrics_snapshot\":" +
          (snapshot_metrics.empty() ? "{}" : snapshot_metrics) + "}\n";

  if (!opt.json_path.empty()) {
    std::FILE* f = std::fopen(opt.json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", opt.json_path.c_str());
      return 2;
    }
    std::fputs(json.c_str(), f);
    std::fclose(f);
    std::printf("\njson written to %s\n", opt.json_path.c_str());
  }
  if (!all_verified) {
    std::fprintf(stderr, "VERIFICATION FAILED: a shard history violated "
                         "atomicity/freshness\n");
    return 1;
  }
  if (remote && opt.require_scaling > 0) {
    for (const auto& [vs, by_conns] : scaling) {
      if (by_conns.size() < 2) continue;
      const double lo = by_conns.begin()->second;
      const double hi = by_conns.rbegin()->second;
      const double ratio = lo > 0 ? hi / lo : 0;
      std::printf("scaling value_size=%zu: %zu conns -> %zu conns = %.2fx "
                  "(require >= %.2fx)\n",
                  vs, by_conns.begin()->first, by_conns.rbegin()->first,
                  ratio, opt.require_scaling);
      if (ratio < opt.require_scaling) {
        std::fprintf(stderr, "SCALING FAILED: %.2fx < required %.2fx\n",
                     ratio, opt.require_scaling);
        return 1;
      }
    }
  }
  return 0;
}

// perfbench_client — the benchmark's C++ half, driven by perfbench/run.py.
//
//   perfbench_client describe --workload W
//       Print the server flags the workload runs against, as JSON.
//   perfbench_client load --workload W --seed S --seconds T --port P
//                         [--server-pid PID] [--prime-only] [--spans PATH]
//       Prime every key, then drive lds_served at 127.0.0.1:P through the
//       public store::Client API for T seconds in a closed loop, then check
//       the client-observed history with check_atomicity and
//       verify_read_freshness.  With --server-pid, the server's peak RSS is
//       read when the workload's fixed op count has completed.  With
//       --spans, every client op runs in a span.  Prints one JSON object.
//   perfbench_client replay --workload W --seed S
//       Exact SimEngine replay of the workload's op stream through one
//       LdsCluster with the store's geometry: message, event and byte counts
//       per op and the paper's storage and communication costs.  Same seed,
//       byte-identical output.
//   perfbench_client layers --workload W --seed S --dir D --spans PATH
//       Per-layer probes (gf, codes, lds, net, storage, store), each call
//       wrapped in a span; prints one JSON object of per-layer metrics.
//   perfbench_client selftest
//       Exact percentiles against a brute-force sort.
//
// Spans are kept in memory per thread and written out as JSON lines when the
// command ends.  A span records layer, name, start, end, parent and op id.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "codes/factory.h"
#include "common/rng.h"
#include "gf/gf256.h"
#include "harness/stress.h"
#include "harness/workload.h"
#include "lds/cluster.h"
#include "lds/history.h"
#include "net/codec.h"
#include "net/sim.h"
#include "net/transport.h"
#include "storage/wal.h"
#include "store/client.h"
#include "store/remote.h"
#include "store/store_service.h"

namespace {

using namespace lds;
using Clock = std::chrono::steady_clock;

double mono_s() {
  return std::chrono::duration<double>(Clock::now().time_since_epoch())
      .count();
}

// ---- workloads ----------------------------------------------------------------

/// A closed-loop workload: `clients` threads, uniform keys, fixed-size
/// values, one tenant, against a RAM-only server.
struct Workload {
  std::string name;
  std::size_t clients = 2;
  std::size_t keys = 0;
  double read_fraction = 0.5;
  std::size_t value_size = 0;
  std::size_t replay_ops = 0;  ///< measured ops in the SimEngine replay
  /// Completed ops at which the server's peak RSS is read: below what the
  /// slowest run completes in the measured phase, so every run reads it
  /// after the same amount of server history.
  std::uint64_t rss_at_ops = 0;
};

// The server every workload runs against (lds_served flags): the store's
// default geometry n1=6 f1=1 n2=8 f2=2 PM-MBR, 4 shards over 2 engine lanes.
// Two lanes leave the 2 client threads their own CPUs on a 4-CPU host; with
// one lane per shard (lds_served's default there) small_mixed flipped
// between two throughput levels from run to run.
constexpr std::size_t kShards = 4;
constexpr std::size_t kLanes = 2;

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      {"small_mixed", 2, 4096, 0.5, 1024, 2000, 20000},
      {"large_read", 2, 256, 0.9, 16384, 400, 2000},
  };
  return all;
}

const Workload* find_workload(const std::string& name) {
  for (const auto& w : workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

harness::WorkloadModel make_model(const Workload& w) {
  harness::WorkloadOptions o;
  o.keys = w.keys;
  o.read_fraction = w.read_fraction;
  o.value_dist =
      *harness::ValueSizeDist::parse("fixed:" + std::to_string(w.value_size));
  return harness::WorkloadModel(o);
}

/// A value of `size` bytes: a (stream, seq) stamp then seeded filler, eight
/// bytes per draw so generating 16 KiB stays cheap next to the op itself.
Bytes make_value(Rng& rng, std::size_t size, std::uint64_t stream,
                 std::uint64_t seq) {
  Bytes out(size);
  std::size_t i = 0;
  const std::uint64_t stamp[2] = {stream, seq};
  const std::size_t head = std::min(size, sizeof(stamp));
  std::memcpy(out.data(), stamp, head);
  i = head;
  while (i < size) {
    const std::uint64_t r = rng.next_u64();
    const std::size_t n = std::min<std::size_t>(8, size - i);
    std::memcpy(out.data() + i, &r, n);
    i += n;
  }
  return out;
}

/// One generated operation of the workload's stream.
struct Op {
  bool read = false;
  std::size_t key = 0;
  std::size_t size = 0;  ///< put value size
};

/// The per-client op generator: the same seed gives the same ops.
class OpStream {
 public:
  OpStream(const harness::WorkloadModel& model, std::uint64_t seed,
           std::size_t client)
      : model_(model),
        rng_(mix_seed(seed, 0xec0 + client)),
        client_(client) {}

  Op next() {
    Op op;
    op.read = model_.is_read(rng_);
    op.key = model_.key_index(rng_);
    if (!op.read) op.size = model_.value_size(rng_);
    return op;
  }
  Bytes value(std::size_t size) {
    return make_value(rng_, size, client_ + 1, ++seq_);
  }

 private:
  const harness::WorkloadModel& model_;
  Rng rng_;
  std::size_t client_;
  std::uint64_t seq_ = 0;
};

// ---- spans --------------------------------------------------------------------

struct SpanRec {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint64_t op = 0;
  const char* layer = "";
  const char* name = "";
  double start = 0;  ///< seconds, steady clock
  double end = 0;
};

/// In-memory span store: one vector per thread, merged at write-out.
class Tracer {
 public:
  static Tracer& get() {
    static Tracer t;
    return t;
  }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }

  std::vector<SpanRec>& local() {
    thread_local std::vector<SpanRec>* mine = nullptr;
    if (mine == nullptr) {
      std::lock_guard<std::mutex> lk(mu_);
      buffers_.push_back(std::make_unique<std::vector<SpanRec>>());
      buffers_.back()->reserve(1 << 16);
      mine = buffers_.back().get();
    }
    return *mine;
  }
  std::uint64_t next_id() { return ++ids_; }

  std::vector<SpanRec> all() {
    std::lock_guard<std::mutex> lk(mu_);
    std::vector<SpanRec> out;
    for (const auto& b : buffers_) out.insert(out.end(), b->begin(), b->end());
    return out;
  }

  /// Write every span as one JSON line; returns how many.
  std::size_t write(const std::string& path) {
    const auto spans = all();
    if (path.empty()) return spans.size();
    FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return spans.size();
    for (const auto& s : spans) {
      std::fprintf(f,
                   "{\"id\":%" PRIu64 ",\"parent\":%" PRIu64 ",\"op\":%" PRIu64
                   ",\"layer\":\"%s\",\"name\":\"%s\",\"start\":%.9f,"
                   "\"end\":%.9f}\n",
                   s.id, s.parent, s.op, s.layer, s.name, s.start, s.end);
    }
    std::fclose(f);
    return spans.size();
  }

 private:
  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> ids_{0};
  std::mutex mu_;
  std::vector<std::unique_ptr<std::vector<SpanRec>>> buffers_;
};

thread_local std::uint64_t t_current_span = 0;

/// RAII span around one call into a layer; a no-op while tracing is off.
class Span {
 public:
  Span(const char* layer, const char* name, std::uint64_t op = 0) {
    Tracer& t = Tracer::get();
    if (!t.enabled()) return;
    rec_.id = t.next_id();
    rec_.parent = t_current_span;
    rec_.op = op;
    rec_.layer = layer;
    rec_.name = name;
    t_current_span = rec_.id;
    rec_.start = mono_s();
    active_ = true;
  }
  ~Span() {
    if (!active_) return;
    rec_.end = mono_s();
    t_current_span = rec_.parent;
    Tracer::get().local().push_back(rec_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanRec rec_;
  bool active_ = false;
};

/// Seconds one call of `fn` takes, timed inside its span so that the figure
/// is the layer's own and not the tracer's.
template <class Fn>
double timed(const char* layer, const char* name, Fn&& fn,
             std::uint64_t op = 0) {
  Span span(layer, name, op);
  const double t = mono_s();
  fn();
  return mono_s() - t;
}

// ---- exact percentiles ----------------------------------------------------------

struct Percentile {
  double value = 0;  ///< the order statistic
  double q = 0;      ///< the percentile actually reported (0..1; 0 = none)
  std::size_t n = 0;
  std::size_t windows = 1;  ///< see windowed_percentile
};

/// Nearest-rank order statistic: the ceil(q*n)-th smallest sample.  The
/// request is lowered to the highest percentile that leaves at least
/// `min_beyond` samples above it; q = 0 when even the median cannot.
Percentile exact_percentile(std::vector<double> samples, double q,
                            std::size_t min_beyond = 10) {
  Percentile p;
  p.n = samples.size();
  if (p.n == 0) return p;
  std::size_t rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(p.n) - 1e-9));
  rank = std::clamp<std::size_t>(rank, 1, p.n);
  p.q = q;
  if (p.n - rank < min_beyond) {
    if (p.n <= min_beyond) {
      p.q = 0;
      return p;
    }
    rank = p.n - min_beyond;
    p.q = static_cast<double>(rank) / static_cast<double>(p.n);
  }
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  p.value = samples[rank - 1];
  return p;
}

// ---- JSON output ------------------------------------------------------------------

class Json {
 public:
  void num(const std::string& k, double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
    add(k, buf);
  }
  void integer(const std::string& k, std::uint64_t v) {
    add(k, std::to_string(v));
  }
  void boolean(const std::string& k, bool v) { add(k, v ? "true" : "false"); }
  std::string done() const { return "{" + body_ + "}"; }

 private:
  void add(const std::string& k, const std::string& v) {
    if (!body_.empty()) body_ += ",";
    body_ += "\"" + k + "\":" + v;
  }
  std::string body_;
};

/// Latency samples with the (mono) time each op started or came due.
struct Samples {
  std::vector<double> at, ms;
  void add(double t, double latency_ms) {
    at.push_back(t);
    ms.push_back(latency_ms);
  }
  void append(const Samples& o) {
    at.insert(at.end(), o.at.begin(), o.at.end());
    ms.insert(ms.end(), o.ms.begin(), o.ms.end());
  }
};

/// The phase [start, start + span) cut into K equal windows by op start
/// time, each window's exact percentile, and the median of those K values:
/// a host hiccup of a few seconds then moves one window, not the run.  K is
/// the most windows, up to 8, that leave each window about enough samples
/// for the percentile with 10 beyond it (at least 100); K = 1 is the plain
/// exact percentile.  The reported q is the lowest any window reached.
Percentile windowed_percentile(const Samples& s, double start, double span,
                               double q) {
  const std::size_t need = std::max<std::size_t>(
      100, static_cast<std::size_t>(std::ceil(10.0 / (1.0 - q))));
  const std::size_t k = std::clamp<std::size_t>(s.ms.size() / need, 1, 8);
  if (k == 1) return exact_percentile(s.ms, q);
  std::vector<std::vector<double>> win(k);
  for (std::size_t i = 0; i < s.ms.size(); ++i) {
    const double f = (s.at[i] - start) / span;
    win[std::min(k - 1, static_cast<std::size_t>(std::max(0.0, f) * k))]
        .push_back(s.ms[i]);
  }
  std::vector<double> values;
  Percentile out;
  out.q = q;
  out.n = s.ms.size();
  out.windows = k;
  for (const auto& w : win) {
    const Percentile p = exact_percentile(w, q);
    if (p.q == 0) continue;  // a window too thin to say anything
    values.push_back(p.value);
    out.q = std::min(out.q, p.q);
  }
  if (values.empty()) return exact_percentile(s.ms, q);
  out.value = exact_percentile(values, 0.5, 0).value;
  return out;
}

void put_percentile(Json& j, const std::string& prefix, const Percentile& p) {
  j.num(prefix + "_ms", p.value);
  j.num(prefix + "_q", p.q);
  j.integer(prefix + "_n", p.n);
  j.integer(prefix + "_windows", p.windows);
}

// ---- client-observed history ---------------------------------------------------

/// The client-observed history of a run, shared by its client threads.
struct ClientHistory {
  std::mutex mu;
  core::History history;
  std::unordered_map<std::string, ObjectId> objects;

  void record(OpId id, core::OpKind kind, const std::string& key,
              NodeId client, double invoked, double responded, Tag tag,
              Value value) {
    std::lock_guard<std::mutex> lk(mu);
    auto it = objects.find(key);
    if (it == objects.end()) {
      it = objects.emplace(key, static_cast<ObjectId>(objects.size())).first;
    }
    const std::size_t idx =
        history.on_invoke(id, kind, it->second, client, invoked);
    history.on_response(idx, responded, tag, std::move(value));
  }
};

/// Records a finished op; returns false when the op failed.
bool record_get(ClientHistory& h, OpId id, const std::string& key,
                NodeId me, double inv, double resp,
                const store::GetResult& r) {
  if (r.status.ok()) {
    h.record(id, core::OpKind::Read, key, me, inv, resp, r.tag, r.value);
    return true;
  }
  if (r.status.is(StatusCode::kNotFound)) {
    // The initial value: (t0, empty) makes a stale NotFound checkable.
    h.record(id, core::OpKind::Read, key, me, inv, resp, kTag0, Value{});
    return true;
  }
  return false;
}

bool record_put(ClientHistory& h, OpId id, const std::string& key,
                NodeId me, double inv, double resp,
                const store::PutResult& r, const Value& value) {
  if (!r.status.ok()) return false;
  // An absorbed (coalesced) put is never readable and carries the
  // survivor's tag: it has no linearization-visible record.
  if (!r.coalesced) {
    h.record(id, core::OpKind::Write, key, me, inv, resp, r.tag, value);
  }
  return true;
}

// ---- load -------------------------------------------------------------------------

struct LoadArgs {
  const Workload* w = nullptr;
  std::uint64_t seed = 1;
  double seconds = 10;
  std::uint16_t port = 0;
  long server_pid = 0;  ///< read the server's peak RSS when > 0
  bool prime_only = false;
  std::string spans_path;  ///< non-empty: a span around every client op
};

/// Peak resident set (VmHWM) of process `pid` in MB; negative when
/// unreadable.
double peak_rss_mb(long pid) {
  FILE* f = std::fopen(("/proc/" + std::to_string(pid) + "/status").c_str(),
                       "r");
  if (f == nullptr) return -1;
  double mb = -1;
  char line[256];
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      mb = std::strtod(line + 6, nullptr) / 1024.0;
      break;
    }
  }
  std::fclose(f);
  return mb;
}

/// Reads the server's peak RSS once exactly `at_ops` measured ops have
/// completed.  The server's history grows with every op, so a fixed op count
/// makes runs comparable whatever their throughput.
struct RssProbe {
  long pid = 0;
  std::uint64_t at_ops = 0;
  std::atomic<std::uint64_t> done{0};
  double mb = -1;  ///< written by the op that completes the at_ops-th

  void op_done() {
    if (done.fetch_add(1, std::memory_order_relaxed) + 1 == at_ops &&
        pid > 0) {
      mb = peak_rss_mb(pid);
    }
  }
};

/// Per-thread raw results of the measured phase.
struct ThreadResult {
  Samples get_ms, put_ms;
  std::uint64_t attempted = 0, failed = 0;
  double last_done = 0;  ///< mono seconds of the last completion
};

/// Pipelined priming: every key written once, with up to `window` puts in
/// flight.  Records into the history so every later read must return a
/// recorded tag.
bool prime(const harness::WorkloadModel& model, std::uint64_t seed,
           std::uint16_t port, ClientHistory& hist, double t0) {
  Status st;
  store::Client::ConnectOptions co;
  co.connections = 2;
  auto primer = store::Client::connect("127.0.0.1", port, &st, co);
  if (primer == nullptr) {
    std::fprintf(stderr, "perfbench: connect failed: %s\n",
                 st.to_string().c_str());
    return false;
  }
  Rng rng(mix_seed(seed, 0x9417));
  struct Pending {
    std::string key;
    Value value;
    double inv;
  };
  std::unordered_map<std::uint64_t, Pending> pend;
  auto& cq = primer->completions();
  std::uint32_t seq = 0;
  bool ok = true;
  auto finish = [&](const store::Completion& c) {
    const double resp = mono_s() - t0;
    auto it = pend.find(c.handle);
    if (it == pend.end()) return;
    ok = record_put(hist, make_op_id(0, ++seq), it->second.key, 0,
                    it->second.inv, resp, c.put, it->second.value) &&
         ok;
    pend.erase(it);
  };
  const std::size_t window = 64;
  std::uint64_t stream_seq = 0;
  store::Completion c;
  for (const std::size_t k : model.keys_coldest_first()) {
    while (pend.size() >= window && cq.wait(&c, 60.0)) finish(c);
    const std::string key = model.key_name(0, k);
    Value value(make_value(rng, model.value_size(rng), 0, ++stream_seq));
    const double inv = mono_s() - t0;
    const auto h = primer->async_put(key, value);
    pend.emplace(h, Pending{key, std::move(value), inv});
  }
  while (cq.outstanding() > 0 && cq.wait(&c, 60.0)) finish(c);
  return ok && pend.empty();
}

/// Closed loop: each client sends its next op when the previous one
/// completed.
void closed_loop_thread(const harness::WorkloadModel& model,
                        std::uint64_t seed, std::size_t t,
                        store::Client& client, ClientHistory& hist,
                        double t0, double stop, RssProbe& rss,
                        ThreadResult& out) {
  OpStream ops(model, seed, t);
  const NodeId me = static_cast<NodeId>(t + 1);
  std::uint32_t seq = 0;
  while (true) {
    const Op op = ops.next();
    const std::string key = model.key_name(0, op.key);
    Value value;
    if (!op.read) value = Value(ops.value(op.size));
    const double inv_abs = mono_s();
    if (inv_abs >= stop) break;
    const OpId id = make_op_id(me, ++seq);
    Span span("store", op.read ? "client.get" : "client.put", id);
    ++out.attempted;
    bool ok = false;
    double resp_abs = 0;
    if (op.read) {
      store::GetResult r;
      client.get(key, [&r](const store::GetResult& g) { r = g; });
      resp_abs = mono_s();
      ok = record_get(hist, id, key, me, inv_abs - t0, resp_abs - t0, r);
      if (ok) out.get_ms.add(inv_abs, (resp_abs - inv_abs) * 1e3);
    } else {
      store::PutResult r;
      client.put(key, value, [&r](const store::PutResult& p) { r = p; });
      resp_abs = mono_s();
      ok = record_put(hist, id, key, me, inv_abs - t0, resp_abs - t0, r,
                      value);
      if (ok) out.put_ms.add(inv_abs, (resp_abs - inv_abs) * 1e3);
    }
    out.last_done = resp_abs;
    if (!ok) ++out.failed;
    rss.op_done();
  }
}

/// Nanoseconds one span costs (open, close, record): the median over
/// batches of empty spans, which are dropped from the record afterwards.
double span_cost_ns() {
  Tracer& tr = Tracer::get();
  const bool was = tr.enabled();
  tr.set_enabled(true);
  std::vector<SpanRec>& buf = tr.local();
  const std::size_t keep = buf.size();
  constexpr std::size_t kBatch = 10000;
  std::vector<double> ns;
  for (int rep = 0; rep < 21; ++rep) {
    const double t = mono_s();
    for (std::size_t i = 0; i < kBatch; ++i) Span span("trace", "empty");
    ns.push_back((mono_s() - t) * 1e9 / kBatch);
    buf.resize(keep);
  }
  tr.set_enabled(was);
  return exact_percentile(ns, 0.5, 0).value;
}

int cmd_load(const LoadArgs& a) {
  const Workload& w = *a.w;
  const harness::WorkloadModel model = make_model(w);
  ClientHistory hist;
  const double t0 = mono_s();
  if (!prime(model, a.seed, a.port, hist, t0)) {
    std::fprintf(stderr, "perfbench: priming failed\n");
    return 1;
  }
  if (a.prime_only) {
    Json j;
    j.num("first_op_mono_s", mono_s());
    std::printf("%s\n", j.done().c_str());
    return 0;
  }

  std::vector<std::unique_ptr<store::Client>> clients;
  for (std::size_t t = 0; t < w.clients; ++t) {
    Status st;
    store::Client::ConnectOptions co;
    co.connections = 1;
    co.transport.progress_threads = 1;
    auto c = store::Client::connect("127.0.0.1", a.port, &st, co);
    if (c == nullptr) {
      std::fprintf(stderr, "perfbench: connect failed: %s\n",
                   st.to_string().c_str());
      return 1;
    }
    clients.push_back(std::move(c));
  }

  const bool traced = !a.spans_path.empty();
  Tracer::get().set_enabled(traced);
  RssProbe rss;
  rss.pid = a.server_pid;
  rss.at_ops = w.rss_at_ops;
  std::vector<ThreadResult> results(w.clients);
  const double start = mono_s();
  const double stop = start + a.seconds;
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < w.clients; ++t) {
    threads.emplace_back([&, t] {
      closed_loop_thread(model, a.seed, t, *clients[t], hist, t0, stop, rss,
                         results[t]);
    });
  }
  for (auto& th : threads) th.join();
  Tracer::get().set_enabled(false);

  ThreadResult all;
  for (const ThreadResult& r : results) {
    all.get_ms.append(r.get_ms);
    all.put_ms.append(r.put_ms);
    all.attempted += r.attempted;
    all.failed += r.failed;
    all.last_done = std::max(all.last_done, r.last_done);
  }
  clients.clear();

  bool verified = true;
  if (const auto r = hist.history.check_atomicity(Bytes{}); !r.ok) {
    std::fprintf(stderr, "ATOMICITY VIOLATION: %s\n", r.violation.c_str());
    verified = false;
  }
  if (const auto r = harness::verify_read_freshness(hist.history); !r.ok) {
    std::fprintf(stderr, "FRESHNESS VIOLATION: %s\n", r.violation.c_str());
    verified = false;
  }

  // The throughput clock runs from the first measured op to the last
  // completion.
  const double measured_s = std::max(1e-9, all.last_done - start);
  const std::uint64_t done = rss.done.load();
  Json j;
  j.boolean("verified", verified);
  j.num("first_op_mono_s", start);
  j.integer("attempted", all.attempted);
  j.integer("failed", all.failed);
  j.num("throughput_ops_s", static_cast<double>(done) / measured_s);
  j.num("measured_s", measured_s);
  for (const double q : {0.5, 0.99}) {
    const std::string p = q == 0.5 ? "_p50" : "_p99";
    put_percentile(j, "get" + p,
                   windowed_percentile(all.get_ms, start, measured_s, q));
    put_percentile(j, "put" + p,
                   windowed_percentile(all.put_ms, start, measured_s, q));
  }
  j.integer("ops_done", done);
  j.integer("rss_at_ops", w.rss_at_ops);
  if (rss.mb > 0) j.num("server_rss_mb", rss.mb);
  if (traced) {
    // Each op carries one span, so the tracer's share of a client thread's
    // time is one span's cost over the mean op time.
    const double span_ns = span_cost_ns();
    const double op_ns =
        1e9 * measured_s * static_cast<double>(w.clients) /
        static_cast<double>(std::max<std::uint64_t>(1, done));
    j.num("span_ns", span_ns);
    j.num("overhead_frac", span_ns / op_ns);
  }
  j.integer("spans", Tracer::get().write(a.spans_path));
  std::printf("%s\n", j.done().c_str());
  return verified ? 0 : 1;
}

// ---- exact SimEngine replay -----------------------------------------------------

core::LdsCluster::Options store_geometry() {
  core::LdsCluster::Options o;
  const store::ShardBackend geo;  // the store's default geometry
  const store::StoreOptions sopt;
  o.cfg.n1 = geo.n1;
  o.cfg.f1 = geo.f1;
  o.cfg.n2 = geo.n2;
  o.cfg.f2 = geo.f2;
  o.cfg.backend = geo.code;
  o.tau1 = sopt.tau1;
  o.tau0 = sopt.tau0;
  o.tau2 = sopt.tau2;
  o.writers = 1;
  o.readers = 1;
  return o;
}

struct Counts {
  std::uint64_t ops = 0;
  std::uint64_t msgs = 0;
  std::uint64_t l1l1_msgs = 0;
  std::uint64_t events = 0;
  std::uint64_t data[net::kNumLinkClasses] = {};
  std::uint64_t meta = 0;
  std::uint64_t user_bytes = 0;
  std::uint64_t helpers = 0;  ///< SEND-HELPER-ELEM = helper_data calls
  std::uint64_t repairs = 0;  ///< DATA-RESP-CODED = repair_element calls
  std::uint64_t decodes = 0;  ///< gets completed from coded elements
  double wall_s = 0;
  double codes_s = 0;  ///< paired replay of the op's coding calls
};

/// Re-issues, right after each replayed op, the coding calls that op made
/// inside the protocol (encode per put; helper, repair and decode per get,
/// with the counts taken from the op's messages) on a value of the same
/// size, so the protocol's own CPU is the op's wall time minus this paired
/// coding time, measured under the same conditions.  Each call is timed
/// inside its span (see timed()).
class CodesMirror {
 public:
  /// A value of one size with its elements, d helper payloads for target 0
  /// and k elements to decode from.
  struct Material {
    Bytes value;
    std::vector<Bytes> elements;
    std::vector<codes::IndexedBytes> helpers, coded;
  };

  CodesMirror(const codes::StripedCode& code, std::size_t n1)
      : code_(code), n1_(static_cast<int>(n1)) {}

  const codes::StripedCode& code() const { return code_; }

  /// Seconds of one call each.
  double encode(const Material& m) const {
    return timed("codes", "encode_value",
                 [&] { (void)code_.encode_value(m.value); });
  }
  /// The i-th helper of a regeneration round: L2 helpers in turn, then the
  /// next L1 target.
  double helper(const Material& m, std::uint64_t i) const {
    const auto n2 = static_cast<std::uint64_t>(m.elements.size()) -
                    static_cast<std::uint64_t>(n1_);
    const int h = n1_ + static_cast<int>(i % n2);
    const int target = static_cast<int>(i / n2) % n1_;
    return timed("codes", "helper_data", [&] {
      (void)code_.helper_data(h, m.elements[static_cast<std::size_t>(h)],
                              target);
    });
  }
  double repair(const Material& m) const {
    return timed("codes", "repair_element", [&] {
      if (!code_.repair_element(0, m.helpers)) std::abort();
    });
  }
  double decode(const Material& m) const {
    std::optional<Bytes> out;
    const double s = timed("codes", "decode_value",
                           [&] { out = code_.decode_value(m.coded); });
    if (!out || *out != m.value) std::abort();
    return s;
  }

  /// Seconds the coding calls of one replayed op take when re-issued.
  double put(std::size_t size) { return encode(material(size)); }
  double get(std::size_t size, std::uint64_t helpers, std::uint64_t repairs,
             std::uint64_t decodes) {
    const Material& m = material(size);
    double s = 0;
    for (std::uint64_t i = 0; i < helpers; ++i) s += helper(m, i);
    for (std::uint64_t i = 0; i < repairs; ++i) s += repair(m);
    for (std::uint64_t i = 0; i < decodes; ++i) s += decode(m);
    return s;
  }

  const Material& material(std::size_t size) {
    auto it = by_size_.find(size);
    if (it != by_size_.end()) return it->second;
    Material m;
    Rng rng(size);
    m.value = make_value(rng, size, 3, size);
    m.elements = code_.encode_value(m.value);
    for (std::size_t h = 0; h < code_.d(); ++h) {
      const int hi = n1_ + static_cast<int>(h);
      m.helpers.emplace_back(
          hi, code_.helper_data(hi, m.elements[static_cast<std::size_t>(hi)],
                                0));
    }
    for (std::size_t e = 0; e < code_.k(); ++e) {
      m.coded.emplace_back(static_cast<int>(e), m.elements[e]);
    }
    return by_size_.emplace(size, std::move(m)).first->second;
  }

 private:
  const codes::StripedCode& code_;
  int n1_;
  std::map<std::size_t, Material> by_size_;
};

struct Replay {
  Counts put, get;
  std::uint64_t l2_bytes = 0, l2_peak = 0, live_bytes = 0;
  std::uint64_t writes = 0, write_bytes = 0;  ///< priming writes included
  std::uint64_t wal_syncs = 0, wal_bytes = 0;
  double recovery_ms = 0;
};

/// Replays the workload's op stream (clients round-robin, one op at a time,
/// each settled before the next) through one LdsCluster under SimEngine.  A
/// key is written once before its first measured op, as the priming pass
/// does on the server.  `data_dir` non-empty replays onto durable L2 storage
/// with the shipped sync policy and reopens it afterwards.  With a
/// `mirror`, each op's coding calls are re-timed right after it.
Replay run_replay(const Workload& w, std::uint64_t seed,
                  const std::string& data_dir = {},
                  CodesMirror* mirror = nullptr) {
  const harness::WorkloadModel model = make_model(w);
  core::LdsCluster::Options o = store_geometry();
  if (!data_dir.empty()) {
    o.data_dir = data_dir;
    o.durability.sync = storage::SyncPolicy::Always;
  }
  Replay out;
  std::optional<core::LdsCluster> cl;
  cl.emplace(o);
  std::map<std::string, std::uint64_t> type_count;
  cl->net().set_delivery_observer(
      [&type_count](NodeId, NodeId, const net::Payload& p) {
        ++type_count[p.type_name()];
      });
  std::vector<OpStream> streams;
  for (std::size_t c = 0; c < w.clients; ++c) {
    streams.emplace_back(model, seed, c);
  }
  Rng prime_rng(mix_seed(seed, 0x9417));
  std::map<std::size_t, std::size_t> live;  ///< key -> live value size
  auto snapshot = [&](Counts& c) {
    const auto& costs = cl->net().costs();
    c.msgs += costs.total().messages;
    c.l1l1_msgs += costs.by_link(net::LinkClass::L1L1).messages;
    c.meta += costs.total().meta_bytes;
    for (int l = 0; l < net::kNumLinkClasses; ++l) {
      c.data[l] += costs.by_link(static_cast<net::LinkClass>(l)).data_bytes;
    }
    c.events += cl->sim().events_executed();
  };
  auto unsnapshot = [&](Counts& c) {
    const auto& costs = cl->net().costs();
    c.msgs -= costs.total().messages;
    c.l1l1_msgs -= costs.by_link(net::LinkClass::L1L1).messages;
    c.meta -= costs.total().meta_bytes;
    for (int l = 0; l < net::kNumLinkClasses; ++l) {
      c.data[l] -= costs.by_link(static_cast<net::LinkClass>(l)).data_bytes;
    }
    c.events -= cl->sim().events_executed();
  };
  std::uint64_t prime_seq = 0;
  for (std::size_t i = 0; i < w.replay_ops; ++i) {
    OpStream& s = streams[i % streams.size()];
    const Op op = s.next();
    const auto obj = static_cast<ObjectId>(op.key);
    const std::size_t lk = op.key;
    if (!live.contains(lk)) {
      const std::size_t size = model.value_size(prime_rng);
      cl->write_sync(0, obj, make_value(prime_rng, size, 0, ++prime_seq));
      cl->settle();
      live[lk] = size;
      ++out.writes;
      out.write_bytes += size;
    }
    Counts& c = op.read ? out.get : out.put;
    const auto helpers0 = type_count["SEND-HELPER-ELEM"];
    const auto coded0 = type_count["DATA-RESP-CODED"];
    const auto value0 = type_count["DATA-RESP-VALUE"];
    unsnapshot(c);
    if (op.read) {
      c.wall_s += timed("lds", "read_sync", [&] {
        c.user_bytes += cl->read_sync(0, obj).second.size();
        cl->settle();
      }, i + 1);
    } else {
      Bytes v = s.value(op.size);
      c.wall_s += timed("lds", "write_sync", [&] {
        cl->write_sync(0, obj, std::move(v));
        cl->settle();
      }, i + 1);
      c.user_bytes += op.size;
      live[lk] = op.size;
      ++out.writes;
      out.write_bytes += op.size;
    }
    snapshot(c);
    ++c.ops;
    const auto helpers = type_count["SEND-HELPER-ELEM"] - helpers0;
    const auto coded = type_count["DATA-RESP-CODED"] - coded0;
    const bool decoded =
        op.read && coded > 0 && type_count["DATA-RESP-VALUE"] == value0;
    c.helpers += helpers;
    c.repairs += coded;
    c.decodes += decoded ? 1 : 0;
    if (mirror != nullptr) {
      c.codes_s += op.read ? mirror->get(live[lk], helpers, coded,
                                         decoded ? 1 : 0)
                           : mirror->put(op.size);
    }
  }
  out.l2_bytes = cl->meter().l2_bytes();
  out.l2_peak = cl->meter().l2_peak_bytes();
  for (const auto& [k, size] : live) out.live_bytes += size;
  if (!data_dir.empty()) {
    for (std::size_t i = 0; i < o.cfg.n2; ++i) {
      if (auto* b = cl->l2(i).storage_backend()) {
        out.wal_syncs += b->wal_stats().syncs;
        out.wal_bytes += b->wal_stats().appended_bytes;
      }
    }
    cl.reset();
    out.recovery_ms = 1e3 * timed("storage", "recover", [&] { cl.emplace(o); });
  }
  return out;
}

double per(std::uint64_t num, std::uint64_t den) {
  return den == 0 ? 0.0
                  : static_cast<double>(num) / static_cast<double>(den);
}

/// The exact (host-independent) part of a replay, as JSON fields.
void exact_fields(Json& j, const Replay& r, double read_fraction) {
  const Counts& p = r.put;
  const Counts& g = r.get;
  const std::uint64_t ops = p.ops + g.ops;
  j.num("stored_bytes_per_user_byte", per(r.l2_bytes, r.live_bytes));
  // Data bytes sent per value byte of the workload's nominal mix: per-get
  // and per-put costs weighted by the read fraction, so the metric does not
  // move with how many gets a seed happens to draw.
  auto per_op = [](const Counts& c, std::uint64_t v) { return per(v, c.ops); };
  std::uint64_t pd_all = 0, gd_all = 0;
  for (int l = 0; l < net::kNumLinkClasses; ++l) {
    pd_all += p.data[l];
    gd_all += g.data[l];
  }
  const double rf = read_fraction;
  j.num("comm_bytes_per_user_byte",
        (rf * per_op(g, gd_all) + (1 - rf) * per_op(p, pd_all)) /
            (rf * per_op(g, g.user_bytes) + (1 - rf) * per_op(p, p.user_bytes)));
  j.num("lds.msgs_per_put", per(p.msgs, p.ops));
  j.num("lds.msgs_per_get", per(g.msgs, g.ops));
  j.num("lds.l1l1_msgs_per_op", per(p.l1l1_msgs + g.l1l1_msgs, ops));
  j.num("lds.events_per_op", per(p.events + g.events, ops));
  // L1-L1 links carry tags only (no data), and no other link class occurs.
  static const char* kLink[net::kNumLinkClasses] = {"client_l1", nullptr,
                                                    "l1_l2", nullptr};
  for (int l = 0; l < net::kNumLinkClasses; ++l) {
    if (kLink[l] == nullptr) continue;
    j.num(std::string("lds.data_bytes_per_put.") + kLink[l],
          per(p.data[l], p.ops));
    j.num(std::string("lds.data_bytes_per_get.") + kLink[l],
          per(g.data[l], g.ops));
  }
  j.num("lds.data_bytes_per_put", per(pd_all, p.ops));
  j.num("lds.data_bytes_per_get", per(gd_all, g.ops));
  j.num("lds.meta_bytes_per_op", per(p.meta + g.meta, ops));
  j.num("lds.l2_bytes_per_value_byte", per(r.l2_peak, r.live_bytes));
  j.num("codes.helpers_per_get", per(g.helpers, g.ops));
  j.num("codes.repairs_per_get", per(g.repairs, g.ops));
  j.num("codes.decodes_per_get", per(g.decodes, g.ops));
  j.integer("replay.puts", p.ops);
  j.integer("replay.gets", g.ops);
}

int cmd_replay(const Workload& w, std::uint64_t seed) {
  const Replay r = run_replay(w, seed);
  Json j;
  exact_fields(j, r, w.read_fraction);
  std::printf("%s\n", j.done().c_str());
  return 0;
}

// ---- per-layer probes -------------------------------------------------------------

/// Median of per-call wall times (microseconds) of `fn` over at least
/// `min_reps` calls and at least 0.1 s, capped at 8 * `min_reps` calls;
/// `fn` returns the seconds of its call, timed inside its span.
double median_call_us(std::size_t min_reps,
                      const std::function<double(std::size_t)>& fn) {
  std::vector<double> us;
  const double until = mono_s() + 0.1;
  for (std::size_t i = 0;
       i < min_reps || (mono_s() < until && i < 8 * min_reps); ++i) {
    us.push_back(fn(i) * 1e6);
  }
  return exact_percentile(us, 0.5, 0).value;
}

/// GB/s of a GF kernel over buffers of `len` bytes: batches of calls, one
/// span per batch (one kernel call is shorter than a span), best of 5.
double kernel_gbps(const char* name, std::size_t len,
                   const std::function<void()>& call) {
  std::size_t batch = std::max<std::size_t>(16, (1u << 22) / (len + 1));
  double best = 0;
  for (int rep = 0; rep < 5; ++rep) {
    const double dt = timed("gf", name, [&] {
      for (std::size_t i = 0; i < batch; ++i) call();
    });
    best = std::max(best, static_cast<double>(batch * len) / dt / 1e9);
  }
  return best;
}

struct LayersArgs {
  const Workload* w = nullptr;
  std::uint64_t seed = 1;
  double seconds = 2;  ///< store probe duration
  std::string dir;
  std::string spans_path;
};

/// The server's StoreService options (what lds_served builds from its
/// flags, default seed included), for the in-process probe.
store::StoreOptions service_options() {
  store::StoreOptions so;
  so.shards = kShards;
  so.engine_threads = kLanes;
  so.engine_mode = net::EngineMode::Parallel;
  return so;
}

/// Closed loop of the workload's clients against an in-process service for
/// `a.seconds`: per-call put/get wall time and the service's batching
/// counters.  Remote latency minus these is the transport plus the remote
/// session's share.
bool store_probe(const Workload& w, const LayersArgs& a, Json& j) {
  const harness::WorkloadModel model = make_model(w);
  std::vector<double> put_us, get_us;
  std::uint64_t puts = 0, batches = 0;
  {
    store::StoreService svc(service_options());
    store::Client client(svc);
    Rng rng(mix_seed(a.seed, 0x9417));
    std::vector<store::KeyValue> batch;
    for (const std::size_t k : model.keys_coldest_first()) {
      batch.push_back({model.key_name(0, k),
                       Value(make_value(rng, model.value_size(rng), 0, k))});
      if (batch.size() == 64) {
        for (const auto& r : client.multi_put_sync(std::move(batch))) {
          if (!r.status.ok()) return false;
        }
        batch.clear();
      }
    }
    for (const auto& r : client.multi_put_sync(std::move(batch))) {
      if (!r.status.ok()) return false;
    }
    const std::uint64_t puts0 = svc.metrics().counter_total("puts");
    const std::uint64_t batches0 = svc.metrics().counter_total("batches");
    std::mutex mu;
    bool ok = true;
    const double stop = mono_s() + a.seconds;
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < w.clients; ++t) {
      threads.emplace_back([&, t] {
        OpStream ops(model, a.seed, t);
        std::vector<double> pu, gu;
        bool mine = true;
        while (mono_s() < stop) {
          const Op op = ops.next();
          const std::string key = model.key_name(0, op.key);
          if (op.read) {
            gu.push_back(1e6 * timed("store", "service.get", [&] {
              mine = client.get_sync(key).ok() && mine;
            }));
          } else {
            Value v(ops.value(op.size));
            pu.push_back(1e6 * timed("store", "service.put", [&] {
              mine = client.put_sync(key, std::move(v)).ok() && mine;
            }));
          }
        }
        std::lock_guard<std::mutex> lk(mu);
        put_us.insert(put_us.end(), pu.begin(), pu.end());
        get_us.insert(get_us.end(), gu.begin(), gu.end());
        ok = ok && mine;
      });
    }
    for (auto& th : threads) th.join();
    svc.quiesce();
    puts = svc.metrics().counter_total("puts") - puts0;
    batches = svc.metrics().counter_total("batches") - batches0;
    if (!ok) return false;
  }
  j.num("store.put_us", exact_percentile(put_us, 0.5, 0).value);
  j.num("store.get_us", exact_percentile(get_us, 0.5, 0).value);
  j.num("store.batches_per_put", per(batches, puts));
  return true;
}

/// codes and gf: per-call medians at the workload's value size, kernel
/// sweeps at its element size; then the timed lds replay with each op's
/// coding calls re-issued beside it.
void probe_codes_gf_lds(const Workload& w, std::uint64_t seed, Json& j) {
  const auto geo = store_geometry().cfg;
  const codes::StripedCode code =
      codes::make_backend(geo.backend, geo.n(), geo.k(), geo.d());
  CodesMirror mirror(code, geo.n1);
  const CodesMirror::Material& m = mirror.material(w.value_size);
  j.num("codes.encode_us", median_call_us(64, [&](std::size_t) {
          return mirror.encode(m);
        }));
  j.num("codes.helper_us", median_call_us(256, [&](std::size_t i) {
          return mirror.helper(m, i);
        }));
  j.num("codes.repair_us", median_call_us(128, [&](std::size_t) {
          return mirror.repair(m);
        }));
  j.num("codes.decode_us", median_call_us(128, [&](std::size_t) {
          return mirror.decode(m);
        }));

  const std::size_t elem_bytes = code.element_size(w.value_size);
  Rng rng(mix_seed(seed, 0x6f));
  Bytes x = make_value(rng, elem_bytes, 7, 1);
  Bytes y = make_value(rng, elem_bytes, 7, 2);
  volatile gf::Elem sink = 0;
  j.num("gf.dot_gbps", kernel_gbps("dot", elem_bytes, [&] {
          sink = sink ^ gf::dot(x, y);
        }));
  j.num("gf.axpy_gbps",
        kernel_gbps("axpy", elem_bytes, [&] { gf::axpy(y, 0x53, x); }));
  j.num("gf.mul_into_gbps",
        kernel_gbps("mul_into", elem_bytes, [&] { gf::mul_into(y, 0x8e, x); }));

  const Replay r = run_replay(w, seed, {}, &mirror);
  exact_fields(j, r, w.read_fraction);
  auto per_op_us = [](double s, std::uint64_t ops) {
    return ops == 0 ? 0.0 : s * 1e6 / static_cast<double>(ops);
  };
  j.num("codes.get_cpu_us", per_op_us(r.get.codes_s, r.get.ops));
  j.num("lds.put_cpu_us", per_op_us(r.put.wall_s - r.put.codes_s, r.put.ops));
  j.num("lds.get_cpu_us", per_op_us(r.get.wall_s - r.get.codes_s, r.get.ops));
}

/// net: simulator schedule+run, store-frame codec, TCP loopback round trip.
bool probe_net(const Workload& w, Json& j) {
  const std::size_t events = 200000;
  net::Simulator sim;
  std::uint64_t fired = 0;
  const double sim_s = timed("net", "sim_schedule_run", [&] {
    for (std::size_t i = 0; i < events; ++i) {
      sim.after(static_cast<double>(i % 97), [&fired] { ++fired; });
    }
    sim.run();
  });
  if (fired != events) std::abort();
  j.num("net.sim_event_ns", sim_s * 1e9 / events);

  store::register_store_wire();
  Rng rng(1);
  const net::MessagePtr msg = store::RemoteMessage::make(
      1, store::RemotePut{make_model(w).key_name(0, 1),
                          Value(make_value(rng, w.value_size, 4, 1))});
  const Bytes wire = net::codec::encode(*msg).to_bytes();
  j.num("net.codec_encode_ns",
        1e3 * median_call_us(2000, [&](std::size_t) {
          std::size_t n = 0;
          const double s = timed("net", "codec_encode", [&] {
            n = net::codec::encode(*msg).size();
          });
          if (n == 0) std::abort();
          return s;
        }));
  j.num("net.codec_decode_ns",
        1e3 * median_call_us(2000, [&](std::size_t) {
          net::MessagePtr out;
          Status dst;
          const double s = timed("net", "codec_decode", [&] {
            dst = net::codec::decode(wire, &out);
          });
          if (!dst.ok()) std::abort();
          return s;
        }));

  net::TcpTransport server, client;
  Status st = server.listen(0, [&server](NodeId peer, net::MessagePtr m) {
    server.deliver(0, peer, m, 0);  // echo
  });
  std::mutex mu;
  std::condition_variable cv;
  std::uint64_t got = 0;
  NodeId peer = kNoNode;
  if (st.ok()) {
    st = client.connect("127.0.0.1", server.port(),
                        [&](NodeId, net::MessagePtr) {
                          std::lock_guard<std::mutex> lk(mu);
                          ++got;
                          cv.notify_all();
                        },
                        &peer);
  }
  if (!st.ok()) {
    std::fprintf(stderr, "perfbench: tcp probe: %s\n", st.to_string().c_str());
    return false;
  }
  const auto ping = store::RemoteMessage::make(
      1, store::RemoteGet{"k", store::ReadMode::Atomic});
  j.num("net.tcp_rtt_us", median_call_us(2000, [&](std::size_t i) {
          return timed("net", "tcp_rtt", [&] {
            client.deliver(0, peer, ping, 0);
            std::unique_lock<std::mutex> lk(mu);
            cv.wait(lk, [&] { return got >= i + 1; });
          });
        }));
  client.stop();
  server.stop();
  return true;
}

/// storage: WAL append and fdatasync of element-sized records, a durable
/// replay of the op stream (syncs and WAL bytes), and recovery time.
bool probe_storage(const Workload& w, const LayersArgs& a, Json& j) {
  namespace fs = std::filesystem;
  const auto geo = store_geometry().cfg;
  const codes::StripedCode code =
      codes::make_backend(geo.backend, geo.n(), geo.k(), geo.d());
  const std::string wal_dir = a.dir + "/wal";
  fs::remove_all(wal_dir);
  storage::DurabilityPolicy pol;
  pol.sync = storage::SyncPolicy::Never;  // syncs are timed on their own
  auto wal = storage::Wal::open(wal_dir, pol);
  if (!wal.ok()) {
    std::fprintf(stderr, "perfbench: wal: %s\n",
                 wal.status().to_string().c_str());
    return false;
  }
  Rng rng(mix_seed(a.seed, 0x5a));
  const Bytes rec = make_value(rng, code.element_size(w.value_size), 5, 1);
  std::vector<double> app, syn;
  bool ok = true;
  for (std::size_t i = 0; i < 200; ++i) {
    app.push_back(1e6 * timed("storage", "wal_append", [&] {
      ok = wal.value()->append(rec).ok() && ok;
    }));
    syn.push_back(1e3 * timed("storage", "wal_sync", [&] {
      ok = wal.value()->sync().ok() && ok;
    }));
  }
  if (!ok) std::abort();
  j.num("storage.wal_append_us", exact_percentile(app, 0.5, 0).value);
  j.num("storage.wal_sync_ms", exact_percentile(syn, 0.5, 0).value);
  wal.value().reset();
  fs::remove_all(wal_dir);

  const std::string dur_dir = a.dir + "/replay";
  fs::remove_all(dur_dir);
  Workload short_w = w;
  short_w.replay_ops = std::min<std::size_t>(w.replay_ops, 200);
  const Replay dr = run_replay(short_w, a.seed, dur_dir);
  fs::remove_all(dur_dir);
  j.num("storage.syncs_per_put", per(dr.wal_syncs, dr.writes));
  j.num("storage.wal_bytes_per_user_byte", per(dr.wal_bytes, dr.write_bytes));
  j.num("storage.recovery_ms", dr.recovery_ms);
  return true;
}

int cmd_layers(const LayersArgs& a) {
  const Workload& w = *a.w;
  Tracer::get().set_enabled(true);
  Json j;
  probe_codes_gf_lds(w, a.seed, j);
  if (!probe_net(w, j) || !probe_storage(w, a, j) || !store_probe(w, a, j)) {
    return 1;
  }
  (void)Tracer::get().write(a.spans_path);
  std::printf("%s\n", j.done().c_str());
  return 0;
}

// ---- selftest ---------------------------------------------------------------------

int cmd_selftest() {
  Rng rng(42);
  int bad = 0;
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t n = 1 + static_cast<std::size_t>(rng.uniform_int(0, 3000));
    std::vector<double> xs(n);
    for (auto& x : xs) {
      // Coarse values so ties are common.
      x = static_cast<double>(rng.uniform_int(0, trial % 2 ? 50 : 1000000));
    }
    std::vector<double> sorted = xs;
    std::sort(sorted.begin(), sorted.end());
    for (const double q : {0.5, 0.9, 0.99, 0.999}) {
      const Percentile p = exact_percentile(xs, q);
      // Brute force: the same rank straight from the sorted copy.
      std::size_t rank = static_cast<std::size_t>(std::ceil(q * n - 1e-9));
      rank = std::clamp<std::size_t>(rank, 1, n);
      if (n - rank < 10) rank = n > 10 ? n - 10 : 0;
      if (rank == 0) {
        if (p.q != 0) ++bad;
        continue;
      }
      const std::size_t below = static_cast<std::size_t>(std::count_if(
          xs.begin(), xs.end(), [&](double x) { return x < p.value; }));
      const std::size_t at_most = static_cast<std::size_t>(std::count_if(
          xs.begin(), xs.end(), [&](double x) { return x <= p.value; }));
      if (p.value != sorted[rank - 1] || below >= rank || at_most < rank ||
          n - rank < 10 || p.q > q + 1e-12) {
        ++bad;
      }
    }
  }
  std::printf("{\"percentile_mismatches\":%d}\n", bad);
  return bad == 0 ? 0 : 1;
}

// ---- describe / main ------------------------------------------------------------

int cmd_describe() {
  Json j;
  j.integer("shards", kShards);
  j.integer("lanes", kLanes);
  std::printf("%s\n", j.done().c_str());
  return 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_client describe|load|replay|layers|selftest "
               "[--workload W] [--seed N] [--seconds T] [--port P] "
               "[--server-pid PID] [--prime-only] [--spans PATH] [--dir D]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  LoadArgs la;
  LayersArgs ya;
  std::string wname;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* v = i + 1 < argc ? argv[i + 1] : nullptr;
    auto need = [&]() -> const char* {
      if (v == nullptr) {
        std::fprintf(stderr, "missing value for %s\n", arg.c_str());
        std::exit(2);
      }
      ++i;
      return v;
    };
    if (arg == "--workload") {
      wname = need();
    } else if (arg == "--seed") {
      la.seed = ya.seed = std::strtoull(need(), nullptr, 10);
    } else if (arg == "--seconds") {
      la.seconds = ya.seconds = std::strtod(need(), nullptr);
    } else if (arg == "--port") {
      la.port = static_cast<std::uint16_t>(std::strtoul(need(), nullptr, 10));
    } else if (arg == "--server-pid") {
      la.server_pid = std::strtol(need(), nullptr, 10);
    } else if (arg == "--prime-only") {
      la.prime_only = true;
    } else if (arg == "--spans") {
      la.spans_path = ya.spans_path = need();
    } else if (arg == "--dir") {
      ya.dir = need();
    } else {
      std::fprintf(stderr, "unknown option %s\n", arg.c_str());
      return usage();
    }
  }
  if (cmd == "selftest") return cmd_selftest();
  const Workload* w = find_workload(wname);
  if (w == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", wname.c_str());
    return 2;
  }
  la.w = ya.w = w;
  if (cmd == "describe") return cmd_describe();
  if (cmd == "load") return cmd_load(la);
  if (cmd == "replay") return cmd_replay(*w, la.seed);
  if (cmd == "layers") return cmd_layers(ya);
  return usage();
}

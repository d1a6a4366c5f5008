#include "harness/recorder.h"

#include <algorithm>

#include "harness/stress.h"

namespace lds::harness {

namespace {

/// Per-op wall-clock deadline of ClientWorkers.  Generous: a synced put
/// under load takes milliseconds, and the deadline must cover a view
/// change's quiesce window (a few seconds worst-case), so hitting it means
/// the server is gone or wedged.
constexpr double kOpDeadline = 10.0;

}  // namespace

ObjectId ClientRecorder::intern(const std::string& key) {
  const auto it = objects_.find(key);
  if (it != objects_.end()) return it->second;
  const auto obj = static_cast<ObjectId>(objects_.size());
  objects_.emplace(key, obj);
  return obj;
}

void ClientRecorder::record_put(const std::string& key, OpId op,
                                NodeId client, double t_inv, double t_rsp,
                                const store::PutResult& r, Value value) {
  std::lock_guard<std::mutex> lk(mu_);
  if (r.status.ok() && r.coalesced) {
    ++counts_.writes_coalesced;
    return;
  }
  if (r.status.is(StatusCode::kAdmissionReject) ||
      r.status.is(StatusCode::kInvalidArgument)) {
    ++counts_.writes_rejected;
    return;
  }
  const std::size_t idx =
      h_.on_invoke(op, core::OpKind::Write, intern(key), client, t_inv);
  if (r.status.ok()) {
    h_.on_response(idx, t_rsp, r.tag, std::move(value));
    ++counts_.writes_completed;
  } else {
    pending_.emplace_back(idx, std::move(value));
    ++counts_.writes_unknown;
  }
}

void ClientRecorder::record_get(const std::string& key, OpId op,
                                NodeId client, double t_inv, double t_rsp,
                                const store::GetResult& r) {
  std::lock_guard<std::mutex> lk(mu_);
  if (!r.status.ok() && !r.status.is(StatusCode::kNotFound)) {
    ++counts_.reads_failed;
    return;
  }
  const std::size_t idx =
      h_.on_invoke(op, core::OpKind::Read, intern(key), client, t_inv);
  if (r.status.ok()) {
    h_.on_response(idx, t_rsp, r.tag, r.value);
  } else {
    // The key was never written: the register still holds (t0, v0).
    h_.on_response(idx, t_rsp, kTag0, Value());
  }
  ++counts_.reads_completed;
}

void ClientRecorder::reconcile() {
  std::lock_guard<std::mutex> lk(mu_);
  for (const core::OpRecord& op : h_.ops()) {
    if (pending_.empty()) break;
    if (op.kind != core::OpKind::Read || !op.complete) continue;
    const auto it =
        std::find_if(pending_.begin(), pending_.end(),
                     [&op](const auto& p) { return p.second == op.value; });
    if (it == pending_.end()) continue;
    h_.set_payload(it->first, op.tag, op.value);
    ++counts_.writes_bound;
    pending_.erase(it);
  }
}

ClientCounts ClientRecorder::counts() const {
  std::lock_guard<std::mutex> lk(mu_);
  return counts_;
}

std::string HistoryVerdict::violation(bool with_liveness) const {
  if (with_liveness && !liveness_ok()) {
    return "liveness: " + std::to_string(incomplete) + " ops never completed";
  }
  if (!atomicity.ok) return "atomicity: " + atomicity.violation;
  if (!freshness.ok) return "freshness: " + freshness.violation;
  return "";
}

HistoryVerdict verify_history(const core::History& h) {
  HistoryVerdict v;
  v.incomplete = h.incomplete();
  v.atomicity = h.check_atomicity(Bytes{});
  v.freshness = verify_read_freshness(h);
  return v;
}

Value make_value(std::uint32_t thread, std::uint32_t seq, std::size_t size,
                 Rng& rng) {
  Bytes b = rng.bytes(size < 8 ? 8 : size);
  for (int i = 0; i < 4; ++i) {
    b[i] = static_cast<std::uint8_t>(thread >> (8 * i));
    b[4 + i] = static_cast<std::uint8_t>(seq >> (8 * i));
  }
  return Value(std::move(b));
}

ClientWorkers::ClientWorkers(store::RemoteSession& session,
                             ClientRecorder& rec, const Load& load,
                             std::uint64_t seed, std::uint64_t stream,
                             Clock::time_point t0,
                             std::atomic<std::uint32_t>& seq,
                             std::function<bool()> admit)
    : session_(session),
      rec_(rec),
      load_(load),
      t0_(t0),
      seq_(seq),
      admit_(std::move(admit)) {
  try {
    for (std::size_t t = 0; t < load.threads; ++t) {
      threads_.emplace_back(
          [this, t, s = mix_seed(seed, stream + t + 1)] { run(t, s); });
    }
  } catch (...) {
    stop();  // never destroy a joinable thread
    throw;
  }
}

void ClientWorkers::join() {
  for (auto& t : threads_) t.join();
  threads_.clear();
}

void ClientWorkers::stop() {
  stop_.store(true, std::memory_order_release);
  join();
}

void ClientWorkers::run(std::size_t thread, std::uint64_t seed) {
  Rng rng(seed);
  const NodeId client = static_cast<NodeId>(100 + thread);
  while (!stop_.load(std::memory_order_acquire) && admit_()) {
    const std::string key =
        "key-" + std::to_string(rng.uniform_int(
                     0, static_cast<std::int64_t>(load_.keys) - 1));
    const std::uint32_t s = seq_.fetch_add(1, std::memory_order_acq_rel);
    const OpId op = make_op_id(client, s);
    if (rng.bernoulli(load_.read_fraction)) {
      const double t_inv = seconds_since(t0_);
      const store::GetResult r =
          session_.get(key, store::ReadMode::Atomic, kOpDeadline);
      rec_.record_get(key, op, client, t_inv, seconds_since(t0_), r);
    } else {
      Value v = make_value(static_cast<std::uint32_t>(thread), s,
                           load_.value_size, rng);
      const double t_inv = seconds_since(t0_);
      const store::PutResult r = session_.put(key, v, kOpDeadline);
      rec_.record_put(key, op, client, t_inv, seconds_since(t0_), r,
                      std::move(v));
    }
    ops_done_.fetch_add(1, std::memory_order_acq_rel);
    if (!session_.connected()) break;
  }
}

}  // namespace lds::harness

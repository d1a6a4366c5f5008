#include "store/client.h"

#include <chrono>
#include <type_traits>

#include "common/assert.h"
#include "common/format.h"
#include "store/async_util.h"
#include "store/remote.h"

namespace lds::store {

namespace {

std::string deadline_msg(double deadline) {
  return "deadline " + fmt_double(deadline) + " expired";
}

template <typename R>
constexpr bool kIsGet = std::is_same_v<R, GetResult>;

/// The closed and empty-key prechecks every operation passes first.
Status precheck(bool closed, const std::string& key) {
  if (closed) return Status::Unavailable("client closed");
  if (key.empty()) return Status::InvalidArgument("empty key");
  return Status::Ok();
}

/// The callback forms' contract: a local op completes on the key's lane; a
/// remote one blocks the caller — submit, wait on a cell — and fires `cb`
/// inline after the op completes.
template <typename R, typename Cb, typename Submit>
void complete(bool remote, Cb cb, Submit&& submit) {
  if (!remote) {
    submit(std::move(cb));
    return;
  }
  R r = detail::run_op_sync<R>(nullptr, "", std::forward<Submit>(submit));
  if (cb) cb(std::move(r));
}

}  // namespace

// ---- lifecycle / remote mode ------------------------------------------------

Client::Client(StoreService& service, CacheOptions cache) : svc_(&service) {
  if (cache.enabled && cache.capacity > 0) {
    cache_ = std::make_unique<ReadCache>(cache);
  }
}

Client::Client(std::vector<std::unique_ptr<RemoteSession>> remotes,
               CacheOptions cache)
    : remotes_(std::move(remotes)) {
  if (cache.enabled && cache.capacity > 0) {
    cache_ = std::make_unique<ReadCache>(cache);
  }
}

Client::~Client() {
  // Close before members die: cancelled async completions push into cq_,
  // which outlives the sessions only while `this` is still whole.
  close();
}

void Client::close() {
  if (closed_.exchange(true, std::memory_order_acq_rel)) return;
  // Dropping the pool fails every in-flight remote op with Unavailable;
  // their completions drain through cq_ / their callbacks as usual.
  for (auto& s : remotes_) s->close();
}

std::unique_ptr<Client> Client::connect(const std::string& host,
                                        std::uint16_t port, Status* status) {
  return connect(host, port, status, ConnectOptions());
}

std::unique_ptr<Client> Client::connect(const std::string& host,
                                        std::uint16_t port, Status* status,
                                        ConnectOptions copts) {
  if (copts.connections == 0) copts.connections = 1;
  std::vector<std::unique_ptr<RemoteSession>> sessions;
  sessions.reserve(copts.connections);
  for (std::size_t i = 0; i < copts.connections; ++i) {
    auto s = RemoteSession::open(host, port, status, copts.transport);
    if (s == nullptr) return nullptr;  // *status carries the reason
    sessions.push_back(std::move(s));
  }
  return std::unique_ptr<Client>(new Client(std::move(sessions), copts.cache));
}

RemoteSession& Client::pick() {
  return *remotes_[rr_.fetch_add(1, std::memory_order_relaxed) %
                   remotes_.size()];
}

// ---- the op pipeline --------------------------------------------------------

/// One logical operation across its attempts.  The request is kept for
/// re-sending (Value copies are refcounted handles, not payload copies).  In
/// process everything after submission runs on the key's shard lane; remote
/// completions and timers run on the session's transport threads.  Either
/// way the deadline timer, an attempt's completion and a retry race only
/// through `settled` (atomic also because multi-op gathers and sync waiters
/// read results across threads); the retry state is touched by one step of
/// the attempt chain at a time.
template <typename R>
struct Client::Op {
  std::string key;
  Value value;                      ///< puts
  std::optional<Version> expected;  ///< conditional puts
  OpOptions opts;                   ///< gets: read_mode rides the request
  std::function<void(const R&)> cb;
  std::size_t attempt = 1;
  double backoff = 0;
  RemoteSession* sess = nullptr;  ///< remote: the op's pool connection
  std::chrono::steady_clock::time_point began;  ///< remote: budget clock
  /// Remote: the deadline timer, cancelled once the op settles so it does
  /// not hold the op until the deadline passes.
  std::atomic<std::uint64_t> expiry{0};
  std::atomic<bool> settled{false};

  /// First settle wins; a later result (late reply, expired timer) drops.
  void finish(const R& r) {
    if (settled.exchange(true, std::memory_order_acq_rel)) return;
    if (sess != nullptr) sess->cancel(expiry.load(std::memory_order_acquire));
    if (cb) cb(r);
  }
};

template <typename R>
void Client::start(std::shared_ptr<Op<R>> op) {
  op->backoff = op->opts.retry.backoff;
  auto run = [this, op] {
    if (op->opts.deadline > 0) {
      // Expiry completes the op; an attempt still in flight is left to
      // finish and its late result is dropped.
      op->expiry.store(
          schedule(op, op->opts.deadline,
                   [op] {
                     op->finish(R::failure(Status::DeadlineExceeded(
                         deadline_msg(op->opts.deadline))));
                   }),
          std::memory_order_release);
    }
    attempt(op);
  };
  if (remote()) {
    op->sess = &pick();
    op->began = std::chrono::steady_clock::now();
    run();
    return;
  }
  // Hop to the shard's lane first: the deadline timer must be armed with
  // after_here on the lane whose clock the operation runs against.
  svc_->engine().post(lane_of_key(op->key), std::move(run));
}

template <typename R>
void Client::attempt(std::shared_ptr<Op<R>> op) {
  if (op->settled.load(std::memory_order_acquire)) return;  // deadline won
  send<R>(op, [this, op](const R& r) {
    if (op->settled.load(std::memory_order_acquire)) return;  // deadline won
    const RetryPolicy& retry = op->opts.retry;
    if (!r.status.ok() && retry.retriable(r.status) &&
        op->attempt < retry.max_attempts) {
      const double delay = op->backoff;
      ++op->attempt;
      op->backoff *= retry.backoff_multiplier;
      schedule(op, delay, [this, op] { attempt(op); });
      return;
    }
    op->finish(r);
  });
}

template <typename R>
void Client::send(const std::shared_ptr<Op<R>>& op,
                  std::function<void(const R&)> done) {
  if (!remote()) {
    if constexpr (kIsGet<R>) {
      svc_->get(op->key, std::move(done), op->opts.read_mode);
    } else if (op->expected.has_value()) {
      svc_->put_if(op->key, op->value, *op->expected, std::move(done));
    } else {
      svc_->put(op->key, op->value, std::move(done));
    }
    return;
  }
  double budget = 0;  // 0 = unbounded
  if (op->opts.deadline > 0) {
    // The attempt carries what is left of the op's budget, so the session
    // drops its pending entry at expiry too.
    budget = op->opts.deadline -
             std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                           op->began)
                 .count();
    if (budget <= 0) return;  // the op's deadline timer settles it
  }
  RemoteBody req;
  if constexpr (kIsGet<R>) {
    req = RemoteGet{op->key, op->opts.read_mode};
  } else if (op->expected.has_value()) {
    req = RemotePutIf{op->key, op->value, *op->expected};
  } else {
    req = RemotePut{op->key, op->value};
  }
  op->sess->async_call(
      std::move(req), budget,
      [done = std::move(done)](Status st, RemoteReply reply) {
        if (!st.ok()) {
          done(R::failure(std::move(st)));
        } else if constexpr (kIsGet<R>) {
          done(to_get_result(reply));
        } else {
          done(to_put_result(reply));
        }
      });
}

template <typename R>
std::uint64_t Client::schedule(const std::shared_ptr<Op<R>>& op, double delay,
                               std::function<void()> fn) {
  if (!remote()) {
    svc_->engine().after_here(delay, std::move(fn));
    return 0;
  }
  // A session timer is cancelled with the connection: the op then fails
  // with the session's status instead of waiting for a timer that is gone.
  return op->sess->after(
      delay, [op, fn = std::move(fn)](Status st, RemoteReply) {
        if (st.ok()) {
          fn();
        } else {
          op->finish(R::failure(std::move(st)));
        }
      });
}

net::Simulator* Client::sync_sim() {
  if (svc_ == nullptr || svc_->parallel()) return nullptr;
  return &svc_->engine().lane_sim(0);
}

// ---- submission cores -------------------------------------------------------

void Client::submit_put(const std::string& key, Value value,
                        std::optional<Version> expected, PutCallback cb,
                        OpOptions opts) {
  if (cache_ != nullptr) cb = wrap_put_cb(key, value, std::move(cb));
  if (Status s = precheck(closed(), key); !s.ok()) {
    if (cb) cb(PutResult::failure(std::move(s)));
    return;
  }
  auto op = std::make_shared<Op<PutResult>>();
  op->key = key;
  op->value = std::move(value);
  op->expected = expected;
  op->opts = opts;
  op->cb = std::move(cb);
  start(std::move(op));
}

void Client::submit_get(const std::string& key, GetCallback cb,
                        OpOptions opts) {
  if (Status s = precheck(closed(), key); !s.ok()) {
    if (cb) cb(GetResult::failure(std::move(s)));
    return;
  }
  if (cache_applies(opts.read_mode)) {
    cached_get(key, std::move(cb), opts);
    return;
  }
  raw_get(key, std::move(cb), opts);
}

void Client::raw_get(const std::string& key, GetCallback cb, OpOptions opts) {
  auto op = std::make_shared<Op<GetResult>>();
  op->key = key;
  op->opts = opts;
  op->cb = std::move(cb);
  start(std::move(op));
}

void Client::submit_multi_get(std::vector<std::string> keys,
                              MultiGetCallback cb, OpOptions opts) {
  if (keys.empty()) {  // fire exactly once — an empty gather never completes
    cb({});
    return;
  }
  // Every sub-get is submitted before the first completes, so a remote
  // batch costs one round trip, not keys.size() of them.
  auto gather = detail::make_gather<GetResult>(keys.size(), std::move(cb));
  for (std::size_t i = 0; i < keys.size(); ++i) {
    submit_get(keys[i],
               [gather, i](const GetResult& r) {
                 detail::gather_finish(gather, i, r);
               },
               opts);
  }
}

void Client::submit_multi_put(std::vector<KeyValue> entries,
                              MultiPutCallback cb, OpOptions opts) {
  if (entries.empty()) {
    cb({});
    return;
  }
  auto gather = detail::make_gather<PutResult>(entries.size(), std::move(cb));
  for (std::size_t i = 0; i < entries.size(); ++i) {
    submit_put(entries[i].key, std::move(entries[i].value), std::nullopt,
               [gather, i](const PutResult& r) {
                 detail::gather_finish(gather, i, r);
               },
               opts);
  }
}

// ---- callback API -----------------------------------------------------------

void Client::put(const std::string& key, Value value, PutCallback cb,
                 OpOptions opts) {
  complete<PutResult>(remote(), std::move(cb), [&](auto done) {
    submit_put(key, std::move(value), std::nullopt, std::move(done), opts);
  });
}

void Client::put_if_version(const std::string& key, Value value,
                            Version expected, PutCallback cb, OpOptions opts) {
  complete<PutResult>(remote(), std::move(cb), [&](auto done) {
    submit_put(key, std::move(value), expected, std::move(done), opts);
  });
}

void Client::get(const std::string& key, GetCallback cb, OpOptions opts) {
  complete<GetResult>(remote(), std::move(cb), [&](auto done) {
    submit_get(key, std::move(done), opts);
  });
}

void Client::multi_get(std::vector<std::string> keys, MultiGetCallback cb,
                       OpOptions opts) {
  LDS_REQUIRE(cb != nullptr, "Client::multi_get: null callback");
  complete<std::vector<GetResult>>(remote(), std::move(cb), [&](auto done) {
    submit_multi_get(std::move(keys), std::move(done), opts);
  });
}

void Client::multi_put(std::vector<KeyValue> entries, MultiPutCallback cb,
                       OpOptions opts) {
  LDS_REQUIRE(cb != nullptr, "Client::multi_put: null callback");
  complete<std::vector<PutResult>>(remote(), std::move(cb), [&](auto done) {
    submit_multi_put(std::move(entries), std::move(done), opts);
  });
}

// ---- completion-queue API ----------------------------------------------------

template <typename R>
std::function<void(const R&)> Client::enqueue(std::uint64_t h,
                                              Completion::Kind kind,
                                              const std::string& key) {
  cq_.start();
  return [this, h, kind, key](const R& r) {
    Completion c;
    c.handle = h;
    c.kind = kind;
    c.key = key;
    if constexpr (kIsGet<R>) {
      c.get = r;
    } else {
      c.put = r;
    }
    cq_.push(std::move(c));
  };
}

std::uint64_t Client::async_put(const std::string& key, Value value,
                                PutCallback cb, OpOptions opts) {
  LDS_REQUIRE(cb != nullptr, "Client::async_put: null callback");
  const std::uint64_t h = next_handle();
  submit_put(key, std::move(value), std::nullopt, std::move(cb), opts);
  return h;
}

std::uint64_t Client::async_get(const std::string& key, GetCallback cb,
                                OpOptions opts) {
  LDS_REQUIRE(cb != nullptr, "Client::async_get: null callback");
  const std::uint64_t h = next_handle();
  submit_get(key, std::move(cb), opts);
  return h;
}

std::uint64_t Client::async_put_if(const std::string& key, Value value,
                                   Version expected, PutCallback cb,
                                   OpOptions opts) {
  LDS_REQUIRE(cb != nullptr, "Client::async_put_if: null callback");
  const std::uint64_t h = next_handle();
  submit_put(key, std::move(value), expected, std::move(cb), opts);
  return h;
}

std::uint64_t Client::async_put(const std::string& key, Value value,
                                OpOptions opts) {
  const std::uint64_t h = next_handle();
  submit_put(key, std::move(value), std::nullopt,
             enqueue<PutResult>(h, Completion::Kind::Put, key), opts);
  return h;
}

std::uint64_t Client::async_get(const std::string& key, OpOptions opts) {
  const std::uint64_t h = next_handle();
  submit_get(key, enqueue<GetResult>(h, Completion::Kind::Get, key), opts);
  return h;
}

std::uint64_t Client::async_put_if(const std::string& key, Value value,
                                   Version expected, OpOptions opts) {
  const std::uint64_t h = next_handle();
  submit_put(key, std::move(value), expected,
             enqueue<PutResult>(h, Completion::Kind::PutIf, key), opts);
  return h;
}

// ---- sync wrappers ----------------------------------------------------------

using detail::run_op_sync;

Result<Version> Client::put_sync(const std::string& key, Value value,
                                 OpOptions opts) {
  const PutResult r = run_op_sync<PutResult>(
      sync_sim(), "Client::put_sync: simulation drained before completion",
      [&](auto done) {
        submit_put(key, std::move(value), std::nullopt, std::move(done), opts);
      });
  if (!r.status.ok()) return r.status;
  return r.version;
}

Result<VersionedValue> Client::get_sync(const std::string& key,
                                        OpOptions opts) {
  const GetResult r = run_op_sync<GetResult>(
      sync_sim(), "Client::get_sync: simulation drained before completion",
      [&](auto done) { submit_get(key, std::move(done), opts); });
  if (!r.status.ok()) return r.status;
  return VersionedValue{r.version, r.value};
}

Result<Version> Client::put_if_version_sync(const std::string& key,
                                            Value value, Version expected,
                                            OpOptions opts) {
  const PutResult r = run_op_sync<PutResult>(
      sync_sim(),
      "Client::put_if_version_sync: simulation drained before completion",
      [&](auto done) {
        submit_put(key, std::move(value), expected, std::move(done), opts);
      });
  if (!r.status.ok()) return r.status;
  return r.version;
}

std::vector<GetResult> Client::multi_get_sync(std::vector<std::string> keys,
                                              OpOptions opts) {
  return run_op_sync<std::vector<GetResult>>(
      sync_sim(),
      "Client::multi_get_sync: simulation drained before completion",
      [&](auto done) {
        submit_multi_get(std::move(keys), std::move(done), opts);
      });
}

std::vector<PutResult> Client::multi_put_sync(std::vector<KeyValue> entries,
                                              OpOptions opts) {
  return run_op_sync<std::vector<PutResult>>(
      sync_sim(),
      "Client::multi_put_sync: simulation drained before completion",
      [&](auto done) {
        submit_multi_put(std::move(entries), std::move(done), opts);
      });
}

// ---- read cache -------------------------------------------------------------

double Client::cache_now() const {
  if (svc_ != nullptr && !svc_->parallel()) return svc_->sim().now();
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void Client::cached_get(const std::string& key, GetCallback cb,
                        OpOptions opts) {
  auto entry = cache_->lookup(key);
  if (!entry.has_value()) {
    client_metrics_.counter("cache_misses").inc();
    fill_get(key, std::move(cb), opts);
    return;
  }
  if (cache_->options().ttl > 0 && cache_now() < entry->fresh_until) {
    // Opt-in bounded staleness: serve without any round until the ttl.
    client_metrics_.counter("cache_hits").inc();
    client_metrics_.counter("cache_ttl_hits").inc();
    client_metrics_.counter("wire_value_bytes_saved").inc(entry->value.size());
    if (cb) cb(GetResult::success(entry->version.tag(),
                                  std::move(entry->value)));
    return;
  }
  // Validation round: a tag-only read through the normal get path.  The
  // returned committed tag is >= any operation that completed before the
  // round started, so tag == cached version certifies currency.
  client_metrics_.counter("cache_validation_rounds").inc();
  OpOptions vopts = opts;
  vopts.read_mode = ReadMode::TagOnly;
  raw_get(
      key,
      [this, key, opts, cb = std::move(cb),
       cached = std::move(*entry)](const GetResult& r) mutable {
        if (r.status.ok()) {
          if (r.version == cached.version) {
            client_metrics_.counter("cache_hits").inc();
            client_metrics_.counter("wire_value_bytes_saved")
                .inc(cached.value.size());
            cache_->revalidate(key, cached.version, cache_now());
            if (cb) {
              cb(GetResult::success(cached.version.tag(),
                                    std::move(cached.value)));
            }
            return;
          }
          // Stale entry: fall through to a full get, which refreshes it.
          client_metrics_.counter("cache_misses").inc();
          client_metrics_.counter("cache_stale_validations").inc();
          fill_get(key, std::move(cb), opts);
          return;
        }
        if (r.status.is(StatusCode::kInvalidArgument)) {
          // The shard cannot serve tag-only rounds (non-LDS protocol):
          // stop consulting the cache for good and serve the plain read.
          if (cache_usable_.exchange(false, std::memory_order_acq_rel)) {
            client_metrics_.counter("cache_disabled").inc();
          }
          raw_get(key, std::move(cb), opts);
          return;
        }
        if (r.status.is(StatusCode::kNotFound) && cache_->invalidate(key)) {
          client_metrics_.counter("cache_invalidations").inc();
        }
        if (cb) cb(r);  // NotFound / DeadlineExceeded / ... propagate
      },
      vopts);
}

void Client::fill_get(const std::string& key, GetCallback cb, OpOptions opts) {
  raw_get(key,
          [this, key, cb = std::move(cb)](const GetResult& r) {
            if (r.status.ok()) {
              cache_->update(key, r.version, r.value, cache_now());
            }
            if (cb) cb(r);
          },
          opts);
}

Client::PutCallback Client::wrap_put_cb(const std::string& key,
                                        const Value& value, PutCallback cb) {
  return [this, key, value, cb = std::move(cb)](const PutResult& r) {
    if (r.status.ok()) {
      if (r.coalesced) {
        // Durable, but a newer same-key put of the same batch window won:
        // a read returns the survivor's value, not ours.  Drop the entry.
        if (cache_->invalidate(key)) {
          client_metrics_.counter("cache_invalidations").inc();
        }
      } else {
        cache_->update(key, r.version, value, cache_now());
      }
    } else if (r.status.is(StatusCode::kAborted)) {
      // A conditional put lost against observed version r.version; the
      // entry is known stale but the winner's value is unknown.
      if (cache_->invalidate(key)) {
        client_metrics_.counter("cache_invalidations").inc();
      }
    }
    if (cb) cb(r);
  };
}

}  // namespace lds::store

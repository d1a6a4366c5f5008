// Internal async plumbing shared by StoreService and store::Client:
//
//   * run_op_sync — the one sync-wait cell behind every *_sync wrapper and
//     every blocking remote client call.  Under the deterministic engine it
//     spins the lane-0 simulator (timers and callbacks fire as events);
//     otherwise (Parallel engine, remote client: `sim` null) it blocks the
//     calling thread until another thread completes the op.  notify
//     happens under the lock so the waiter cannot destroy the cell while
//     the signaling thread still touches it.
//   * Gather — the scatter-gather block behind every multi-key op.
//     Sub-ops settle on their own lanes; the atomic counter makes the last
//     completion (wherever it runs) fire the callback exactly once.
//
// Not part of the public API; include from store/*.cpp only.
#pragma once

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "common/assert.h"
#include "net/engine.h"

namespace lds::store::detail {

template <typename R, typename Invoke>
R run_op_sync(net::Simulator* sim, const char* what, Invoke&& invoke) {
  R out{};
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  invoke([&](R r) {
    std::lock_guard<std::mutex> lk(mu);
    out = std::move(r);
    done = true;
    cv.notify_one();
  });
  if (sim != nullptr) {
    while (!done && sim->step()) {
    }
    LDS_REQUIRE(done, what);
  } else {
    std::unique_lock<std::mutex> lk(mu);
    cv.wait(lk, [&] { return done; });
  }
  return out;
}

template <typename R, typename Invoke>
R run_op_sync(net::Engine& engine, bool parallel, const char* what,
              Invoke&& invoke) {
  return run_op_sync<R>(parallel ? nullptr : &engine.lane_sim(0), what,
                        std::forward<Invoke>(invoke));
}

template <typename ResultT, typename CallbackT>
struct Gather {
  std::vector<ResultT> results;
  std::atomic<std::size_t> remaining{0};
  CallbackT cb;
};

template <typename ResultT, typename CallbackT>
std::shared_ptr<Gather<ResultT, CallbackT>> make_gather(std::size_t n,
                                                        CallbackT cb) {
  auto g = std::make_shared<Gather<ResultT, CallbackT>>();
  g->results.resize(n);
  g->remaining.store(n, std::memory_order_release);
  g->cb = std::move(cb);
  return g;
}

/// Record sub-op i's result; the last one fires the gathered callback.
template <typename GatherT, typename ResultT>
void gather_finish(const std::shared_ptr<GatherT>& g, std::size_t i,
                   const ResultT& r) {
  g->results[i] = r;
  if (g->remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    g->cb(std::move(g->results));
  }
}

}  // namespace lds::store::detail

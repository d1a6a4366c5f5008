// Client-observed histories and the one end-of-run verdict.
//
// The paper proves LDS atomic through P1-P3 (Theorem IV.9).  The harnesses
// check that claim end to end: every operation a client observes becomes a
// record in a core::History, and the recorded history goes through two
// independent checkers (History::check_atomicity and verify_read_freshness).
// This module holds both halves, once:
//
//   * ClientRecorder turns a client-observed outcome into a history record.
//     The rule, per op kind:
//       put ok                          -> completed write
//       put ok but coalesced            -> no record (absorbed by a newer
//                                          same-key put: never readable, its
//                                          version is the survivor's)
//       put AdmissionReject/InvalidArg  -> no record (never reached a writer)
//       put failed otherwise            -> INCOMPLETE write: the reply was
//                                          lost in flight, the store may have
//                                          applied it; reconcile() binds it
//       get ok                          -> completed read
//       get NotFound                    -> completed read of (t0, empty): a
//                                          stale NotFound after a completed
//                                          put is a checkable violation
//       get failed otherwise            -> no record
//     Each class is counted (ClientCounts); callers keep their own policy on
//     unknown and failed ops.
//   * verify_history runs liveness, atomicity and freshness, in that order,
//     and names the first violation.
//   * ClientWorkers is the closed client loop the process harnesses (kill-9,
//     reconfig) drive a served store with; each supplies only its stop rule.
//
// Recording happens AFTER an op returns, under one mutex, with invocation
// and response times captured around the call: the checkers consume only
// the recorded timestamps, so post-hoc recording preserves the real-time
// precedence relation exactly.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "harness/proc.h"
#include "lds/history.h"
#include "store/remote.h"

namespace lds::harness {

/// How many client-observed outcomes fell in each recording class.
struct ClientCounts {
  std::size_t writes_completed = 0;
  std::size_t writes_unknown = 0;    ///< failed in flight; maybe applied
  std::size_t writes_bound = 0;      ///< unknowns bound to a tag by a read
  std::size_t writes_coalesced = 0;
  std::size_t writes_rejected = 0;   ///< AdmissionReject / InvalidArgument
  std::size_t reads_completed = 0;
  std::size_t reads_failed = 0;

  /// Every op that did not complete (unknown, rejected or failed).
  std::size_t failed() const {
    return writes_unknown + writes_rejected + reads_failed;
  }
};

/// Thread-safe history recorder for client-observed operations.  Key
/// strings are interned to ObjectIds in first-seen order.
class ClientRecorder {
 public:
  void record_put(const std::string& key, OpId op, NodeId client,
                  double t_inv, double t_rsp, const store::PutResult& r,
                  Value value);
  void record_get(const std::string& key, OpId op, NodeId client,
                  double t_inv, double t_rsp, const store::GetResult& r);

  /// Bind each unknown-outcome write to the tag the store actually gave it:
  /// if a completed read returned the write's value, that value IS stored
  /// under the read's tag, so it becomes the write's payload and P3
  /// accounts for it (the History::set_payload contract).  Values must be
  /// unique per write (make_value) for the binding to be sound; writes whose
  /// value no read returned stay unbound and constrain nothing.
  void reconcile();

  ClientCounts counts() const;
  /// The recorded history.  Read it only once every recording thread has
  /// finished.
  const core::History& history() const { return h_; }

 private:
  ObjectId intern(const std::string& key);

  mutable std::mutex mu_;
  core::History h_;
  std::unordered_map<std::string, ObjectId> objects_;
  /// Unknown-outcome writes awaiting a tag: history index -> value.
  std::vector<std::pair<std::size_t, Value>> pending_;
  ClientCounts counts_;
};

/// The end-of-run verdict over one recorded history.
struct HistoryVerdict {
  std::size_t incomplete = 0;            ///< liveness: ops never completed
  core::History::CheckResult atomicity;  ///< History::check_atomicity
  core::History::CheckResult freshness;  ///< verify_read_freshness

  bool liveness_ok() const { return incomplete == 0; }
  bool ok() const { return liveness_ok() && atomicity.ok && freshness.ok; }
  /// The first failure in check order — "liveness: N ops never completed",
  /// "atomicity: ..." or "freshness: ..." — or "" when ok.  Histories that
  /// keep unknown-outcome writes incomplete by design ask without liveness.
  std::string violation(bool with_liveness = true) const;
};

/// Liveness, atomicity (initial value empty) and freshness over `h`.
HistoryVerdict verify_history(const core::History& h);

/// A client value unique across a whole run: `thread` and `seq` are
/// tattooed into the first 8 bytes, the rest is random (at least 8 bytes
/// total).  Uniqueness makes value -> write injective for reconcile().
Value make_value(std::uint32_t thread, std::uint32_t seq, std::size_t size,
                 Rng& rng);

/// The client threads of a process harness: each runs a closed loop of
/// atomic gets and unique-valued puts on uniform keys "key-<i>" against one
/// served store, recording every outcome.  Thread t is client 100 + t and
/// seeds its Rng from mix_seed(seed, stream + t + 1).
class ClientWorkers {
 public:
  struct Load {
    std::size_t threads = 4;
    std::size_t keys = 16;
    std::size_t value_size = 64;
    double read_fraction = 0.5;
  };

  /// Start the threads.  `t0` is the history's time origin and `seq` the
  /// run-wide op/value sequence (both span every round of a harness).
  /// `admit` is the stop rule, asked before each op; a thread also stops
  /// on stop() or when the session drops.
  ClientWorkers(store::RemoteSession& session, ClientRecorder& rec,
                const Load& load, std::uint64_t seed, std::uint64_t stream,
                Clock::time_point t0, std::atomic<std::uint32_t>& seq,
                std::function<bool()> admit);
  ~ClientWorkers() { stop(); }
  ClientWorkers(const ClientWorkers&) = delete;
  ClientWorkers& operator=(const ClientWorkers&) = delete;

  /// Ops finished so far, across threads.
  std::uint64_t ops_done() const {
    return ops_done_.load(std::memory_order_acquire);
  }
  /// Wait until the threads stop on their own (admit refused).
  void join();
  /// Tell the threads to stop after their current op, then join.
  void stop();

 private:
  void run(std::size_t thread, std::uint64_t seed);

  store::RemoteSession& session_;
  ClientRecorder& rec_;
  const Load load_;
  const Clock::time_point t0_;
  std::atomic<std::uint32_t>& seq_;
  const std::function<bool()> admit_;
  std::atomic<bool> stop_{false};
  std::atomic<std::uint64_t> ops_done_{0};
  std::vector<std::thread> threads_;
};

}  // namespace lds::harness

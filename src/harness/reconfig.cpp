#include "harness/reconfig.h"

#include <sys/wait.h>

#include <atomic>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <mutex>
#include <optional>
#include <sstream>
#include <thread>

#include "harness/proc.h"
#include "member/controller.h"
#include "member/view.h"
#include "storage/fsutil.h"
#include "store/remote.h"

namespace lds::harness {

namespace {

/// Moves block through propose + quiesce + activate + state-sync.
constexpr double kMoveDeadline = 60.0;

struct Peer {
  Child proc;
  std::uint16_t member_port = 0;
};

/// Spawn one member peer and wait for its member port.
std::optional<Peer> spawn_peer(const ReconfigOptions& opt,
                               std::uint16_t head_mport,
                               const std::string& node_ids,
                               const std::string& port_file,
                               std::uint64_t seed, std::string* err) {
  std::remove(port_file.c_str());
  Child proc = spawn({
      opt.server_bin,
      "--join", "127.0.0.1:" + std::to_string(head_mport),
      "--node-ids", node_ids,
      "--member-port", "0",
      "--member-port-file", port_file,
      "--seed", std::to_string(seed),
  });
  if (!proc.running()) {
    *err = "reconfig: fork (peer) failed";
    return std::nullopt;
  }
  const auto port = wait_for_port(port_file, proc, 30.0);
  if (!port) {
    *err = "reconfig: peer claiming " + node_ids +
           " never published a member port";
    return std::nullopt;
  }
  return Peer{std::move(proc), *port};
}

/// Poll the controller until the head's epoch reaches `want` (joins and
/// rejoins are applied asynchronously by the coordinator worker).
bool wait_epoch(member::Controller& ctl, std::uint64_t want, double timeout_s,
                std::uint64_t* out) {
  const auto t0 = Clock::now();
  while (seconds_since(t0) < timeout_s) {
    const auto e = ctl.epoch(5.0);
    if (e.ok()) {
      *out = e.value();
      if (e.value() >= want) return true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  return false;
}

}  // namespace

ReconfigReport run_reconfig(const ReconfigOptions& opt) {
  ReconfigReport rep;
  ClientRecorder rec;
  // Every failure exit leaves through here; the Child handles still in
  // scope SIGKILL and reap their processes on the way out.
  auto fail = [&rep, &rec](std::string why) {
    rep.violation = std::move(why);
    rep.ops = rec.counts();
    return rep;
  };
  if (opt.server_bin.empty() || opt.work_dir.empty()) {
    return fail("reconfig: --server-bin and --work-dir are required");
  }
  if (opt.threads == 0 || opt.keys == 0 || opt.ops_per_round == 0) {
    return fail("reconfig: threads, keys and ops-per-round must be positive");
  }
  if (auto st = storage::wipe_dir(opt.work_dir); !st.ok()) {
    return fail("reconfig: wipe " + opt.work_dir + ": " + st.message());
  }
  const std::string view_dir = opt.work_dir + "/view";

  // ---- spawn the head (store + coordinator) --------------------------------
  const std::string head_port_file = opt.work_dir + "/head-port";
  const std::string head_mport_file = opt.work_dir + "/head-mport";
  Child head = spawn({
      opt.server_bin,
      "--port", "0",
      "--port-file", head_port_file,
      "--shards", "1",
      "--member-port", "0",
      "--member-port-file", head_mport_file,
      "--member-dir", view_dir,
      "--seed", std::to_string(opt.seed),
  });
  if (!head.running()) return fail("reconfig: fork (head) failed");
  const auto head_port = wait_for_port(head_port_file, head, 30.0);
  const auto head_mport = head_port
                              ? wait_for_port(head_mport_file, head, 30.0)
                              : std::nullopt;
  if (!head_port || !head_mport) {
    return fail("reconfig: head never published its ports");
  }

  // ---- join two peers: L2 #6,#7 -> peer1 and #4,#5 -> peer2 ----------------
  // Default geometry n2=8, f2=2: each peer holds at most f2 L2 servers, so
  // one dead peer never exceeds the protocol's fault budget.
  std::string err;
  auto peer1 = spawn_peer(opt, *head_mport, "30006,30007",
                          opt.work_dir + "/p1-mport", opt.seed + 101, &err);
  if (!peer1) return fail(std::move(err));
  ++rep.peers_started;
  auto peer2 = spawn_peer(opt, *head_mport, "30004,30005",
                          opt.work_dir + "/p2-mport", opt.seed + 102, &err);
  if (!peer2) return fail(std::move(err));
  ++rep.peers_started;

  Status open_st;
  auto session = store::RemoteSession::open("127.0.0.1", *head_port, &open_st);
  auto ctl_session =
      session ? store::RemoteSession::open("127.0.0.1", *head_port, &open_st)
              : nullptr;
  if (ctl_session == nullptr) {
    return fail("reconfig: connect: " + open_st.to_string());
  }
  member::Controller ctl(*ctl_session);

  // Bootstrap = epoch 1; each join activates one more.
  if (!wait_epoch(ctl, 3, 30.0, &rep.final_epoch)) {
    return fail("reconfig: joins never activated (epoch " +
                std::to_string(rep.final_epoch) + " < 3)");
  }

  // ---- concurrent client workload ------------------------------------------
  // Stop rule: run until stopped; pace() meters the churn by finished ops.
  std::atomic<std::uint32_t> seq{0};
  ClientWorkers workers(*session, rec,
                        {opt.threads, opt.keys, opt.value_size,
                         opt.read_fraction},
                        opt.seed, 0, Clock::now(), seq, [] { return true; });
  /// Let at least `n` more client ops finish under the current view.
  auto pace = [&](std::size_t n) {
    const std::uint64_t want = workers.ops_done() + n;
    const auto p0 = Clock::now();
    while (workers.ops_done() < want && seconds_since(p0) < 60.0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  };

  // ---- churn: bounce L2 #3 between the head and peer1 ----------------------
  pace(opt.ops_per_round);
  for (std::size_t m = 0; m < opt.moves; ++m) {
    const bool out = m % 2 == 0;
    const auto r = out ? ctl.move_l2({3}, "127.0.0.1", peer1->member_port,
                                     kMoveDeadline)
                       : ctl.move_l2_home({3}, kMoveDeadline);
    if (!r.ok()) {
      return fail("reconfig: move " + std::to_string(m) + " (" +
                  (out ? "out" : "home") + "): " + r.status().to_string());
    }
    rep.final_epoch = r.value();
    ++rep.moves_applied;
    if (opt.verbose) {
      std::fprintf(stderr, "reconfig: move %zu (%s) -> epoch %llu\n", m,
                   out ? "head->peer1" : "peer1->head",
                   static_cast<unsigned long long>(r.value()));
    }
    pace(opt.ops_per_round);
  }

  // ---- SIGKILL mid-reconfig ------------------------------------------------
  if (opt.kill_mid_move) {
    const std::uint64_t before = rep.final_epoch;
    std::mutex mmu;
    std::condition_variable mcv;
    bool mdone = false;
    // Pull L2 #5 home; peer2 (its current host) dies while the change is in
    // flight.  The coordinator's ack waits are bounded, so the move still
    // activates — a dead peer only costs timeouts, never liveness.
    ctl.async_move_l2({5}, "", 0,
                      [&](Status, std::uint64_t) {
                        std::lock_guard<std::mutex> lk(mmu);
                        mdone = true;
                        mcv.notify_one();
                      },
                      kMoveDeadline);
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    peer2->proc.stop(SIGKILL);
    ++rep.kills;
    {
      std::unique_lock<std::mutex> lk(mmu);
      if (!mcv.wait_for(lk, std::chrono::seconds(90),
                        [&] { return mdone; })) {
        return fail("reconfig: move never completed after SIGKILL");
      }
    }
    pace(opt.ops_per_round / 2);
    // Restart peer2 on the same claims: it re-joins under a fresh epoch and
    // is re-synced from scratch (a rejoined process always starts empty).
    peer2 = spawn_peer(opt, *head_mport, "30004,30005",
                       opt.work_dir + "/p2-mport", opt.seed + 103, &err);
    if (!peer2) return fail(std::move(err));
    ++rep.peers_started;
    if (!wait_epoch(ctl, before + 2, 60.0, &rep.final_epoch)) {
      return fail("reconfig: peer2 rejoin never activated (epoch " +
                  std::to_string(rep.final_epoch) + ")");
    }
    if (opt.verbose) {
      std::fprintf(stderr, "reconfig: SIGKILL + rejoin -> epoch %llu\n",
                   static_cast<unsigned long long>(rep.final_epoch));
    }
    pace(opt.ops_per_round);
  }

  // ---- shutdown + verdict --------------------------------------------------
  workers.stop();
  session.reset();
  ctl_session.reset();

  rep.peers_clean = true;
  for (Peer* p : {&*peer1, &*peer2}) {
    const int status = p->proc.stop(SIGTERM);
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      rep.peers_clean = false;
    }
  }
  const int status = head.stop(SIGTERM);
  rep.server_verified = WIFEXITED(status) && WEXITSTATUS(status) == 0;

  // The acceptance bit for durability: the final epoch's view must be
  // recoverable from the head's member dir.
  if (auto loaded = member::View::load(view_dir);
      loaded.ok() && loaded.value().has_value()) {
    rep.persisted_epoch = loaded.value()->epoch;
    rep.view_recovered = rep.persisted_epoch >= rep.final_epoch;
  }

  // Unknown-outcome writes stay incomplete by design: no liveness verdict.
  rec.reconcile();
  const HistoryVerdict v = verify_history(rec.history());
  rep.ops = rec.counts();
  rep.atomicity_ok = v.atomicity.ok;
  rep.freshness_ok = v.freshness.ok;
  if (std::string why = v.violation(/*with_liveness=*/false); !why.empty()) {
    rep.violation = std::move(why);
  } else if (!rep.server_verified) {
    rep.violation = "reconfig: head exit status " + std::to_string(status) +
                    " (server-side verification failed)";
  } else if (!rep.peers_clean) {
    rep.violation = "reconfig: a peer did not exit cleanly on SIGTERM";
  } else if (!rep.view_recovered) {
    rep.violation = "reconfig: persisted epoch " +
                    std::to_string(rep.persisted_epoch) +
                    " behind final epoch " + std::to_string(rep.final_epoch);
  }
  return rep;
}

std::string format_reconfig_report(const ReconfigOptions& opt,
                                   const ReconfigReport& rep) {
  std::ostringstream os;
  os << "reconfig: " << rep.peers_started << " peers started, "
     << rep.moves_applied << " moves applied, " << rep.kills
     << " SIGKILLs, final epoch " << rep.final_epoch << " (persisted "
     << rep.persisted_epoch << "), work_dir=" << opt.work_dir << "\n"
     << "reconfig: writes " << rep.ops.writes_completed << " completed, "
     << rep.ops.writes_unknown << " unknown (" << rep.ops.writes_bound
     << " bound by reads), " << rep.ops.writes_coalesced
     << " coalesced; reads " << rep.ops.reads_completed << " completed, "
     << rep.ops.reads_failed << " failed\n"
     << "reconfig: atomicity " << (rep.atomicity_ok ? "OK" : "VIOLATION")
     << ", freshness " << (rep.freshness_ok ? "OK" : "VIOLATION")
     << ", head self-check " << (rep.server_verified ? "OK" : "FAILED")
     << ", peers " << (rep.peers_clean ? "OK" : "FAILED") << ", view "
     << (rep.view_recovered ? "RECOVERED" : "LOST") << "\n";
  if (!rep.violation.empty()) os << "reconfig: " << rep.violation << "\n";
  os << (rep.ok() ? "reconfig: PASS" : "reconfig: FAIL") << "\n";
  return os.str();
}

}  // namespace lds::harness

#include "harness/kill9.h"

#include <sys/wait.h>

#include <csignal>
#include <cstdio>
#include <sstream>
#include <thread>

#include "harness/proc.h"
#include "storage/fsutil.h"
#include "store/remote.h"

namespace lds::harness {

Kill9Report run_kill9(const Kill9Options& opt) {
  Kill9Report rep;
  ClientRecorder rec;
  auto fail = [&rep, &rec](std::string why) {
    rep.violation = std::move(why);
    rep.ops = rec.counts();
    return rep;
  };
  if (opt.server_bin.empty() || opt.data_dir.empty()) {
    return fail("kill9: --server-bin and --data-dir are required");
  }
  if (opt.threads == 0 || opt.keys == 0 || opt.ops_per_round == 0) {
    return fail("kill9: threads, keys and ops-per-round must be positive");
  }
  if (!opt.keep_data) {
    if (auto st = storage::wipe_dir(opt.data_dir); !st.ok()) {
      return fail("kill9: wipe " + opt.data_dir + ": " + st.message());
    }
  }

  const auto t0 = Clock::now();
  const std::string port_file = opt.data_dir + "/PORT";
  std::atomic<std::uint32_t> seq{0};  // value/op sequence, unique run-wide
  const ClientWorkers::Load load{opt.threads, opt.keys, opt.value_size,
                                 opt.read_fraction};

  for (std::size_t round = 0; round <= opt.kills; ++round) {
    const bool kill_round = round < opt.kills;
    std::remove(port_file.c_str());  // never connect to a dead incarnation
    Child server = spawn({
        opt.server_bin,
        "--port", "0",
        "--port-file", port_file,
        "--data-dir", opt.data_dir,
        "--sync", storage::sync_policy_name(opt.sync),
        "--shards", std::to_string(opt.shards),
        "--seed", std::to_string(opt.seed),
    });
    if (!server.running()) return fail("kill9: fork failed");
    ++rep.incarnations;
    const auto port = wait_for_port(port_file, server, 30.0);
    if (!port) {
      return fail("kill9: incarnation " + std::to_string(round) +
                  " never published a port (exited or hung)");
    }
    Status open_st;
    auto session = store::RemoteSession::open("127.0.0.1", *port, &open_st);
    if (session == nullptr) {
      return fail("kill9: connect: " + open_st.to_string());
    }

    // Stop rule: a ticket quota per incarnation.
    std::atomic<std::size_t> tickets{0};
    ClientWorkers workers(*session, rec, load, opt.seed, round * opt.threads,
                          t0, seq, [&tickets, &opt] {
                            return tickets.fetch_add(
                                       1, std::memory_order_acq_rel) <
                                   opt.ops_per_round;
                          });

    if (kill_round) {
      // SIGKILL mid-churn: wait for half the quota, then no mercy.
      const auto kt0 = Clock::now();
      while (tickets.load(std::memory_order_acquire) < opt.ops_per_round / 2 &&
             seconds_since(kt0) < 120.0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
      server.stop(SIGKILL);
      ++rep.kills;
      workers.stop();
    } else {
      // Final incarnation: drain the full quota, then terminate gracefully.
      // The daemon quiesces and runs the SERVER-side verifiers over its
      // histories (which begin with the recovery sweep's synthetic writes);
      // its exit code is the second half of the verdict.
      workers.join();
      const int status = server.stop(SIGTERM);
      rep.server_verified = WIFEXITED(status) && WEXITSTATUS(status) == 0;
      if (!rep.server_verified) {
        rep.violation = "kill9: final incarnation exit status " +
                        std::to_string(status) +
                        " (server-side verification failed)";
      }
    }
    if (opt.verbose) {
      std::fprintf(stderr,
                   "kill9: round %zu done (%s), %zu ops ticketed\n", round,
                   kill_round ? "SIGKILL" : "SIGTERM",
                   tickets.load(std::memory_order_acquire));
    }
  }

  // Unknown-outcome writes stay incomplete by design: no liveness verdict.
  rec.reconcile();
  const HistoryVerdict v = verify_history(rec.history());
  rep.ops = rec.counts();
  rep.atomicity_ok = v.atomicity.ok;
  rep.freshness_ok = v.freshness.ok;
  if (const std::string why = v.violation(/*with_liveness=*/false);
      !why.empty()) {
    rep.violation = why;
  }
  return rep;
}

std::string format_kill9_report(const Kill9Options& opt,
                                const Kill9Report& rep) {
  std::ostringstream os;
  os << "kill9: " << rep.incarnations << " incarnations, " << rep.kills
     << " SIGKILLs, data_dir=" << opt.data_dir << " sync="
     << storage::sync_policy_name(opt.sync) << "\n"
     << "kill9: writes " << rep.ops.writes_completed << " completed, "
     << rep.ops.writes_unknown << " unknown (" << rep.ops.writes_bound
     << " bound by reads), " << rep.ops.writes_coalesced
     << " coalesced; reads " << rep.ops.reads_completed << " completed, "
     << rep.ops.reads_failed << " failed\n"
     << "kill9: atomicity " << (rep.atomicity_ok ? "OK" : "VIOLATION")
     << ", freshness " << (rep.freshness_ok ? "OK" : "VIOLATION")
     << ", server self-check "
     << (rep.server_verified ? "OK" : "FAILED") << "\n";
  if (!rep.violation.empty()) os << "kill9: " << rep.violation << "\n";
  os << (rep.ok() ? "kill9: PASS" : "kill9: FAIL") << "\n";
  return os.str();
}

}  // namespace lds::harness

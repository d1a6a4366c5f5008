// Reconfiguration churn stress: the end-to-end proof of the member
// subsystem (multi-process quorums + epoch-based reconfiguration).
//
// The harness forks a real 3-process cluster — one `lds_served` head
// (StoreService + membership coordinator) and two member peers whose
// --node-ids claims pull L2 servers out of the head — then drives client
// load over TCP while churning the membership:
//
//   * join/leave/replace rounds: an L2 server is moved between the head and
//     a peer (member::Controller -> RemoteReconfig), each move activating a
//     new epoch with quiesce + state-sync, while writes and atomic reads
//     keep flowing;
//   * a SIGKILL mid-reconfig: a move is launched asynchronously, the peer
//     hosting the moving servers is SIGKILLed while it is in flight, and
//     the restarted peer re-joins (new epoch, re-synced from scratch).
//
// Every client-observed operation lands in one merged History spanning all
// epochs (harness::ClientRecorder; see recorder.h for the rule per outcome).
// At the end it must pass BOTH verifiers (History::check_atomicity and
// harness::verify_read_freshness), the head's own SIGTERM verification must
// exit 0, and the final epoch's view must be durably recoverable from the
// head's --member-dir.  That is the reconfiguration claim: atomicity holds
// ACROSS view changes, not just within one.
#pragma once

#include <cstdint>
#include <string>

#include "harness/recorder.h"

namespace lds::harness {

struct ReconfigOptions {
  /// Path to the lds_served binary (required).
  std::string server_bin;
  /// Scratch directory for port files + the head's view dir (wiped).
  std::string work_dir;
  /// Blocking move rounds (head <-> peer) after the two joins.
  std::size_t moves = 4;
  /// Client operations ticketed per churn round.
  std::size_t ops_per_round = 300;
  std::size_t threads = 4;
  std::size_t keys = 16;
  std::size_t value_size = 64;
  double read_fraction = 0.5;
  /// SIGKILL a peer while an async move of its servers is in flight, then
  /// restart it (it re-joins and is re-synced).
  bool kill_mid_move = true;
  std::uint64_t seed = 1;
  bool verbose = false;
};

struct ReconfigReport {
  std::size_t peers_started = 0;  ///< peer processes spawned (incl. restart)
  std::size_t moves_applied = 0;  ///< controller moves that returned Ok
  std::size_t kills = 0;          ///< SIGKILLs delivered mid-reconfig
  std::uint64_t final_epoch = 0;      ///< highest epoch the controller saw
  std::uint64_t persisted_epoch = 0;  ///< epoch recovered from VIEW on disk
  ClientCounts ops;               ///< client-observed outcomes, by class
  bool atomicity_ok = false;
  bool freshness_ok = false;
  bool server_verified = false;  ///< head exited 0 on SIGTERM
  bool peers_clean = false;      ///< surviving peers exited 0 on SIGTERM
  bool view_recovered = false;   ///< persisted_epoch >= final_epoch
  std::string violation;

  bool ok() const {
    return atomicity_ok && freshness_ok && server_verified && peers_clean &&
           view_recovered;
  }
};

/// Run the reconfiguration churn stress.  Spawns and reaps real child
/// processes; POSIX only.  Setup failures return a not-ok report with
/// `violation` set.
ReconfigReport run_reconfig(const ReconfigOptions& opt);

/// One human-readable summary block (the CLI output).
std::string format_reconfig_report(const ReconfigOptions& opt,
                                   const ReconfigReport& rep);

}  // namespace lds::harness

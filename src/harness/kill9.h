// Kill-9 crash-recovery stress: the durability proof for storage::Wal +
// storage::Checkpoint.
//
// The harness forks a real `lds_served --data-dir <dir>` daemon, drives it
// over TCP from concurrent client threads, SIGKILLs it mid-churn, restarts
// it on the SAME data_dir, and repeats.  Client threads record every
// operation they observe — with wall-clock invocation/response times that
// span all server incarnations — into one merged History.  After the final
// (gracefully terminated) incarnation the merged history must pass BOTH
// linearizability checkers:
//
//   * History::check_atomicity   (Theorem IV.9 conditions), and
//   * harness::verify_read_freshness (the independent reference checker).
//
// This is the end-to-end claim of durable mode: an operation the CLIENT saw
// complete survives SIGKILL — a completed put's value is never lost, a
// completed get's tag is never rolled back — because durable acks only fire
// once the tag's offload is fdatasynced at an L2 quorum.
//
// Each client-observed outcome is recorded by harness::ClientRecorder (see
// recorder.h for the rule per outcome).  A write whose reply died with the
// server stays an incomplete op until a completed read returns its unique
// value, which binds it to the tag the server actually gave it.
#pragma once

#include <cstdint>
#include <string>

#include "harness/recorder.h"
#include "storage/wal.h"

namespace lds::harness {

struct Kill9Options {
  /// Path to the lds_served binary (required).
  std::string server_bin;
  /// Durable data_dir, wiped at start unless `keep_data` (required).
  std::string data_dir;
  /// SIGKILL rounds; the run uses kills + 1 server incarnations, the last
  /// of which terminates gracefully (SIGTERM) and must exit 0 — the
  /// daemon's own shutdown verification over the server-side histories.
  std::size_t kills = 2;
  /// Client operations per incarnation (the kill lands mid-quota).
  std::size_t ops_per_round = 400;
  std::size_t threads = 4;
  std::size_t keys = 16;
  std::size_t value_size = 64;
  double read_fraction = 0.5;
  /// lds_served knobs.
  std::size_t shards = 2;
  storage::SyncPolicy sync = storage::SyncPolicy::Always;
  std::uint64_t seed = 1;
  /// Reuse an existing data_dir instead of wiping (continue a history).
  bool keep_data = false;
  bool verbose = false;
};

struct Kill9Report {
  std::size_t incarnations = 0;  ///< server processes actually started
  std::size_t kills = 0;         ///< SIGKILLs delivered
  ClientCounts ops;              ///< client-observed outcomes, by class
  bool atomicity_ok = false;
  bool freshness_ok = false;
  bool server_verified = false;  ///< final incarnation exited 0 on SIGTERM
  std::string violation;         ///< first checker violation or setup error

  bool ok() const { return atomicity_ok && freshness_ok && server_verified; }
};

/// Run the kill-9 stress.  Spawns and reaps real child processes; POSIX
/// only.  Any setup failure (server won't start, port never appears)
/// returns a not-ok report with `violation` set.
Kill9Report run_kill9(const Kill9Options& opt);

/// One human-readable summary block (the CLI output).
std::string format_kill9_report(const Kill9Options& opt,
                                const Kill9Report& rep);

}  // namespace lds::harness

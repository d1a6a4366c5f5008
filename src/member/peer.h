// member::PeerHost — a non-coordinator `lds_served` process: it hosts the
// L1/L2 server ids the active membership view places on it, and nothing
// else (no clients, no store front-end).
//
// Lifecycle: start() brings up a single-lane ParallelEngine, a Network whose
// transport is the fabric's RemoteTransport, and the member listener, then
// dials the coordinator with Hello + JoinRequest{listen_port, claims}.  The
// coordinator answers with ViewPropose/ViewActivate; the fabric's
// view-change hook (on this host's lane) constructs and destroys ServerL1 /
// ServerL2 instances to match each new view's placement.  Freshly adopted L2
// servers start EMPTY — the coordinator follows up with SyncL2 listing the
// objects to regenerate, which runs the ordinary repair_object path against
// the surviving peers (the replace_l2 id-reuse flow, stretched across
// processes) and answers SyncDone.
//
// Catch-up: any signal that this process is behind (a StaleEpoch nack, an
// envelope under a newer epoch, a nacked activation) triggers a rate-limited
// ViewFetch to the coordinator, which replays the active view's
// propose + activate.
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "lds/context.h"
#include "lds/server_l1.h"
#include "lds/server_l2.h"
#include "member/fabric.h"
#include "net/engine.h"
#include "net/network.h"

namespace lds::member {

class PeerHost {
 public:
  struct Options {
    /// The coordinator's member endpoint to join.
    Endpoint join;
    /// Server NodeIds this process asks to host (L2: 30000+i, L1: 20000+j).
    /// Advisory — the coordinator decides the placement; a restarted peer
    /// re-claims and is re-synced from scratch.
    std::vector<NodeId> claims;
    /// Member listen port (0 = ephemeral).
    std::uint16_t member_port = 0;
    /// Where this peer persists the active view (empty = RAM only).
    std::string view_dir;
    std::uint64_t seed = 1;
  };

  explicit PeerHost(Options opt);
  ~PeerHost();
  PeerHost(const PeerHost&) = delete;
  PeerHost& operator=(const PeerHost&) = delete;

  /// Listen, start the engine, and send the join request.  The view (and so
  /// the servers) arrive asynchronously from the coordinator.
  Status start();
  void stop();

  std::uint16_t member_port() const { return fabric_.port(); }
  Fabric& fabric() { return fabric_; }
  std::uint64_t epoch() const { return fabric_.epoch(); }

  /// Servers currently constructed here (for tests / status output).  Read
  /// on lane 0 while the peer runs, so views being applied are not torn.
  /// Call from the thread that owns start()/stop().
  std::vector<std::size_t> local_l1() const;
  std::vector<std::size_t> local_l2() const;

 private:
  /// Runs `read` where the lane-confined server tables may be read.
  std::vector<std::size_t> on_lane(
      const std::function<std::vector<std::size_t>()>& read) const;
  void apply_view(const View& prev, const View& next);  // on lane
  void on_control(NodeId conn, ProcessId from, const MemberBody& body);
  void handle_sync(NodeId conn, const SyncL2& sync);
  /// Sequentially repair `objects` on L2 server `index`, then reply
  /// SyncDone on `conn`.  Runs on the lane; retries (bounded) while the
  /// server is not yet constructed (activation may race the sync request).
  void run_sync(NodeId conn, SyncL2 sync, std::size_t next_obj,
                std::uint32_t repaired, std::uint32_t failed, int retries);
  void request_view(double now);

  Options opt_;
  Fabric fabric_;
  std::unique_ptr<net::ParallelEngine> engine_;
  std::unique_ptr<net::Network> net_;

  // Lane-confined (touched only from apply_view/run_sync on lane 0).
  std::shared_ptr<core::LdsContext> ctx_;
  std::vector<std::unique_ptr<core::ServerL1>> l1_;
  std::vector<std::unique_ptr<core::ServerL2>> l2_;

  std::atomic<bool> started_{false};
  mutable std::mutex fetch_mu_;
  double last_fetch_ = -1e18;
};

}  // namespace lds::member

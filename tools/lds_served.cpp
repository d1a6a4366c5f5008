// lds_served — a networked LDS store daemon.
//
// Runs one StoreService under the parallel engine and serves remote
// store::Clients over TCP (store/remote.h wire protocol):
//
//   lds_served                                # 4 shards on 127.0.0.1:7777
//   lds_served --port 0 --port-file port.txt  # ephemeral port, written out
//   lds_served --shards 8 --threads 4 --backend lds --duration 60
//
// Prints "lds_served: listening on 127.0.0.1:<port>" once ready, then serves
// until SIGINT/SIGTERM (or --duration seconds).  On shutdown it stops
// accepting, quiesces the service, and replays every shard history through
// the atomicity + freshness verifiers — the exit code is the verification
// verdict, which is what the CI loopback smoke (and scripts/stress.sh
// TRANSPORT=tcp) gate on.
//
// Multi-process membership (member subsystem):
//
//   lds_served --shards 1 --member-port 0 --member-port-file m.txt
//              --member-dir /tmp/head            # head: store + coordinator
//   lds_served --join 127.0.0.1:9000 --node-ids 30006,30007   # member peer
//
// The head runs the StoreService with a membership fabric: its L1/L2 servers
// can be moved into joined peer processes at runtime (store::RemoteReconfig /
// member::Controller), with the active view persisted under --member-dir so
// a restarted head resumes at epoch persisted+1 (all servers pulled home;
// peers at the dead epoch are fenced and re-join).  A peer process hosts
// ONLY the server ids the view places on it and exits 0 on SIGTERM.
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <atomic>
#include <chrono>
#include <string>
#include <thread>

#include <optional>
#include <vector>

#include "harness/recorder.h"
#include "member/fabric.h"
#include "member/peer.h"
#include "member/view.h"
#include "storage/fsutil.h"
#include "storage/manifest.h"
#include "store/remote.h"
#include "store/store_service.h"

namespace {

using namespace lds;

std::atomic<bool> g_stop{false};

void on_signal(int) { g_stop.store(true, std::memory_order_release); }

struct ServedOptions {
  std::uint16_t port = 7777;  ///< 0 = ephemeral
  std::string port_file;
  std::size_t shards = 4;
  std::size_t threads = 0;      ///< engine lanes; 0 = min(shards, hw)
  std::size_t net_threads = 1;  ///< transport progress threads
  store::ShardProtocol backend = store::ShardProtocol::Lds;
  double batch_window = 0.5;
  double duration = 0;  ///< seconds; 0 = until signal
  std::uint64_t seed = 1;
  bool verify = true;
  std::string data_dir;  ///< empty = RAM-only (the default)
  storage::SyncPolicy sync = storage::SyncPolicy::Always;

  // Membership (head mode when member flags set; peer mode when join set).
  bool member = false;              ///< head: run a membership fabric
  std::uint16_t member_port = 0;    ///< member listener; 0 = ephemeral
  std::string member_port_file;
  std::string member_dir;           ///< view persistence dir; empty = RAM
  std::optional<member::Endpoint> join;  ///< peer mode: coordinator to join
  std::vector<NodeId> node_ids;          ///< peer mode: server ids to claim
};

/// "HOST:PORT" -> Endpoint.
std::optional<member::Endpoint> parse_endpoint(const char* s) {
  const char* colon = std::strrchr(s, ':');
  if (colon == nullptr || colon == s) return std::nullopt;
  char* end = nullptr;
  const unsigned long p = std::strtoul(colon + 1, &end, 10);
  if (end == colon + 1 || *end != '\0' || p == 0 || p > 65535) {
    return std::nullopt;
  }
  return member::Endpoint{std::string(s, colon),
                          static_cast<std::uint16_t>(p)};
}

/// Comma-separated NodeId list ("30006,30007").
bool parse_node_ids(const char* s, std::vector<NodeId>* out) {
  while (*s != '\0') {
    char* end = nullptr;
    const long v = std::strtol(s, &end, 10);
    if (end == s || v <= 0) return false;
    out->push_back(static_cast<NodeId>(v));
    if (*end == ',') {
      s = end + 1;
    } else if (*end == '\0') {
      break;
    } else {
      return false;
    }
  }
  return !out->empty();
}

bool write_port_file(const std::string& path, std::uint16_t port) {
  // Atomic (write-temp-then-rename): a harness polling for this file never
  // reads a half-written port number, and a crashed predecessor's stale
  // file is replaced in one step.
  const std::string body = std::to_string(port) + "\n";
  if (const Status st = storage::atomic_write_file(path, body); !st.ok()) {
    std::fprintf(stderr, "lds_served: cannot write %s: %s\n", path.c_str(),
                 st.to_string().c_str());
    return false;
  }
  return true;
}

void usage(const char* argv0) {
  std::printf(
      "usage: %s [options]\n"
      "  --port N          TCP port, 0 = ephemeral (7777)\n"
      "  --port-file PATH  write the bound port here once listening\n"
      "  --shards N        consistent-hash shards (4)\n"
      "  --threads N       engine lanes; 0 = min(shards, hw threads) (0)\n"
      "  --net-threads N   transport progress threads; connections shard\n"
      "                    across them round-robin (1)\n"
      "  --backend B       lds|abd|cas shard protocol (lds)\n"
      "  --batch-window X  put-coalescing window in engine units (0.5)\n"
      "  --duration SECS   auto-exit after SECS; 0 = until SIGTERM (0)\n"
      "  --seed N          master seed (1)\n"
      "  --no-verify       skip the shutdown history verification\n"
      "  --data-dir PATH   durable mode: WAL+checkpoint storage under PATH;\n"
      "                    restarting on the same PATH recovers (lds only)\n"
      "  --sync P          fdatasync policy: always|group|never (always)\n"
      "membership (multi-process quorums; see member/fabric.h):\n"
      "  --member-port N        head: member listener, 0 = ephemeral;\n"
      "                         requires --shards 1, lds, no --data-dir\n"
      "  --member-port-file P   write the bound member port here\n"
      "  --member-dir PATH      persist the active view (VIEW) under PATH;\n"
      "                         a restart resumes at epoch persisted+1\n"
      "  --join HOST:PORT       peer mode: join the coordinator at HOST:PORT\n"
      "                         and host only what the view places here\n"
      "  --node-ids A,B,...     peer mode: server NodeIds to claim\n"
      "                         (L2: 30000+i, L1: 20000+j)\n",
      argv0);
}

}  // namespace

int main(int argc, char** argv) {
  ServedOptions opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    bool ok = true;
    if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
      return 0;
    } else if (arg == "--port") {
      const char* v = next();
      ok = v != nullptr;
      if (ok) {  // strict: digits in [0, 65535], no silent u16 truncation
        char* end = nullptr;
        const unsigned long p = std::strtoul(v, &end, 10);
        ok = end != v && *end == '\0' && p <= 65535;
        if (ok) opt.port = static_cast<std::uint16_t>(p);
      }
    } else if (arg == "--port-file") {
      const char* v = next();
      ok = v != nullptr;
      if (ok) opt.port_file = v;
    } else if (arg == "--shards") {
      const char* v = next();
      ok = v && (opt.shards = std::strtoull(v, nullptr, 10)) >= 1;
    } else if (arg == "--threads") {
      const char* v = next();
      ok = v != nullptr;
      if (ok) opt.threads = std::strtoull(v, nullptr, 10);
    } else if (arg == "--net-threads") {
      const char* v = next();
      ok = v && (opt.net_threads = std::strtoull(v, nullptr, 10)) >= 1;
    } else if (arg == "--backend") {
      const char* v = next();
      ok = v != nullptr;
      if (ok) {
        if (std::strcmp(v, "lds") == 0) {
          opt.backend = store::ShardProtocol::Lds;
        } else if (std::strcmp(v, "abd") == 0) {
          opt.backend = store::ShardProtocol::Abd;
        } else if (std::strcmp(v, "cas") == 0) {
          opt.backend = store::ShardProtocol::Cas;
        } else {
          ok = false;
        }
      }
    } else if (arg == "--batch-window") {
      const char* v = next();
      ok = v != nullptr;
      if (ok) opt.batch_window = std::strtod(v, nullptr);
    } else if (arg == "--duration") {
      const char* v = next();
      ok = v != nullptr;
      if (ok) opt.duration = std::strtod(v, nullptr);
    } else if (arg == "--seed") {
      const char* v = next();
      ok = v != nullptr;
      if (ok) opt.seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--no-verify") {
      opt.verify = false;
    } else if (arg == "--data-dir") {
      const char* v = next();
      ok = v != nullptr && *v != '\0';
      if (ok) opt.data_dir = v;
    } else if (arg == "--sync") {
      const char* v = next();
      auto p = v != nullptr ? storage::parse_sync_policy(v) : std::nullopt;
      ok = p.has_value();
      if (ok) opt.sync = *p;
    } else if (arg == "--member-port") {
      const char* v = next();
      ok = v != nullptr;
      if (ok) {
        char* end = nullptr;
        const unsigned long p = std::strtoul(v, &end, 10);
        ok = end != v && *end == '\0' && p <= 65535;
        if (ok) {
          opt.member_port = static_cast<std::uint16_t>(p);
          opt.member = true;
        }
      }
    } else if (arg == "--member-port-file") {
      const char* v = next();
      ok = v != nullptr;
      if (ok) {
        opt.member_port_file = v;
        opt.member = true;
      }
    } else if (arg == "--member-dir") {
      const char* v = next();
      ok = v != nullptr && *v != '\0';
      if (ok) {
        opt.member_dir = v;
        opt.member = true;
      }
    } else if (arg == "--join") {
      const char* v = next();
      auto ep = v != nullptr ? parse_endpoint(v) : std::nullopt;
      ok = ep.has_value();
      if (ok) opt.join = *ep;
    } else if (arg == "--node-ids") {
      const char* v = next();
      ok = v != nullptr && parse_node_ids(v, &opt.node_ids);
    } else {
      std::fprintf(stderr, "unknown option '%s'\n", arg.c_str());
      usage(argv[0]);
      return 2;
    }
    if (!ok) {
      std::fprintf(stderr, "bad or missing value for '%s'\n", arg.c_str());
      return 2;
    }
  }

  if (opt.join.has_value()) {
    // ---- peer mode: host only what the membership view places here --------
    if (opt.node_ids.empty()) {
      std::fprintf(stderr, "lds_served: --join requires --node-ids\n");
      return 2;
    }
    member::PeerHost::Options po;
    po.join = *opt.join;
    po.claims = opt.node_ids;
    po.member_port = opt.member_port;
    po.view_dir = opt.member_dir;
    po.seed = opt.seed;
    member::PeerHost peer(std::move(po));
    if (const Status st = peer.start(); !st.ok()) {
      std::fprintf(stderr, "lds_served: %s\n", st.to_string().c_str());
      return 2;
    }
    std::printf("lds_served: member peer on 127.0.0.1:%u joining %s "
                "(claims=%zu seed=%llu)\n",
                peer.member_port(), opt.join->str().c_str(),
                opt.node_ids.size(),
                static_cast<unsigned long long>(opt.seed));
    std::fflush(stdout);
    if (!opt.member_port_file.empty() &&
        !write_port_file(opt.member_port_file, peer.member_port())) {
      return 2;
    }
    std::signal(SIGINT, on_signal);
    std::signal(SIGTERM, on_signal);
    const auto start = std::chrono::steady_clock::now();
    while (!g_stop.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      if (opt.duration > 0 &&
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        start).count() >= opt.duration) {
        break;
      }
    }
    const auto s = peer.fabric().stats();
    std::printf("lds_served: peer shutting down at epoch %llu "
                "(%zu L1, %zu L2 hosted; %llu frames forwarded, "
                "%llu stale drops)\n",
                static_cast<unsigned long long>(peer.epoch()),
                peer.local_l1().size(), peer.local_l2().size(),
                static_cast<unsigned long long>(s.frames_forwarded),
                static_cast<unsigned long long>(s.stale_drops));
    peer.stop();
    return 0;
  }

  store::StoreOptions sopt;
  sopt.shards = opt.shards;
  sopt.backend.protocol = opt.backend;
  sopt.batch_window = opt.batch_window;
  sopt.seed = opt.seed;
  sopt.engine_mode = net::EngineMode::Parallel;
  sopt.engine_threads = opt.threads;
  if (!opt.data_dir.empty()) {
    if (opt.backend != store::ShardProtocol::Lds) {
      std::fprintf(stderr, "lds_served: --data-dir requires --backend lds\n");
      return 2;
    }
    sopt.data_dir = opt.data_dir;
    sopt.durability.sync = opt.sync;
    // Pre-check the manifest so a restart against a data_dir written with a
    // different shard/vnode split exits cleanly (the service constructor
    // would abort on the same mismatch).
    if (const Status st = store::StoreService::storage_manifest(sopt)
                              .verify_or_write(sopt.data_dir);
        !st.ok()) {
      std::fprintf(stderr, "lds_served: %s\n", st.to_string().c_str());
      return 2;
    }
  }

  // Head membership mode: bring the fabric up (and re-anchor from a persisted
  // view) BEFORE the service constructs its servers from the active view.
  std::optional<member::Fabric> fabric;
  if (opt.member) {
    if (opt.shards != 1 || opt.backend != store::ShardProtocol::Lds ||
        !opt.data_dir.empty()) {
      std::fprintf(stderr,
                   "lds_served: membership mode requires --shards 1, "
                   "--backend lds and no --data-dir\n");
      return 2;
    }
    member::Fabric::Options fo;
    fo.view_dir = opt.member_dir;
    fabric.emplace(std::move(fo));
    if (const Status st = fabric->listen(opt.member_port); !st.ok()) {
      std::fprintf(stderr, "lds_served: member listen: %s\n",
                   st.to_string().c_str());
      return 2;
    }
    if (!opt.member_dir.empty()) {
      auto loaded = member::View::load(opt.member_dir);
      if (!loaded.ok()) {
        std::fprintf(stderr, "lds_served: %s/VIEW: %s\n",
                     opt.member_dir.c_str(),
                     loaded.status().to_string().c_str());
        return 2;
      }
      if (loaded.value().has_value()) {
        // Restart: resume one epoch PAST the last durably activated view,
        // with every server pulled home — peers of the dead incarnation are
        // fenced (stale epoch) and re-join to be re-synced from scratch.
        // The persisted geometry overrides the CLI so coded elements stay
        // meaningful across incarnations.
        member::View v = std::move(*loaded.value());
        v.epoch += 1;
        v.processes.clear();
        v.processes[member::kCoordinatorProcess] =
            member::Endpoint{"127.0.0.1", fabric->port()};
        v.placement.clear();
        sopt.backend.n1 = v.n1;
        sopt.backend.f1 = v.f1;
        sopt.backend.n2 = v.n2;
        sopt.backend.f2 = v.f2;
        sopt.backend.code = v.code;
        std::printf("lds_served: resuming membership at epoch %llu "
                    "(persisted %llu)\n",
                    static_cast<unsigned long long>(v.epoch),
                    static_cast<unsigned long long>(v.epoch - 1));
        fabric->set_initial_view(std::move(v));
      }
    }
    sopt.fabric = &*fabric;
  }

  store::StoreService svc(sopt);

  store::StoreService::ListenOptions lo;
  lo.net_threads = opt.net_threads;
  if (const Status st = svc.listen(opt.port, lo); !st.ok()) {
    std::fprintf(stderr, "lds_served: %s\n", st.to_string().c_str());
    return 2;
  }
  std::printf("lds_served: listening on 127.0.0.1:%u (shards=%zu lanes=%zu "
              "backend=%s seed=%llu)\n",
              svc.listen_port(), opt.shards, svc.engine().lanes(),
              store::protocol_name(opt.backend),
              static_cast<unsigned long long>(opt.seed));
  std::fflush(stdout);
  if (!opt.port_file.empty() &&
      !write_port_file(opt.port_file, svc.listen_port())) {
    return 2;
  }
  if (opt.member) {
    std::printf("lds_served: member coordinator on 127.0.0.1:%u epoch=%llu\n",
                fabric->port(),
                static_cast<unsigned long long>(fabric->epoch()));
    std::fflush(stdout);
    if (!opt.member_port_file.empty() &&
        !write_port_file(opt.member_port_file, fabric->port())) {
      return 2;
    }
  }

  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);
  const auto start = std::chrono::steady_clock::now();
  while (!g_stop.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    if (opt.duration > 0 &&
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
                .count() >= opt.duration) {
      break;
    }
  }

  std::printf("lds_served: shutting down\n");
  if (opt.member) {
    const auto s = fabric->stats();
    std::printf("lds_served: membership at epoch %llu "
                "(%llu frames forwarded, %llu remote drops, "
                "%llu stale drops)\n",
                static_cast<unsigned long long>(fabric->epoch()),
                static_cast<unsigned long long>(s.frames_forwarded),
                static_cast<unsigned long long>(s.remote_drops),
                static_cast<unsigned long long>(s.stale_drops));
  }
  svc.stop_listening();
  svc.quiesce();
  std::size_t keys = 0;
  for (std::size_t s = 0; s < svc.num_shards(); ++s) {
    keys += svc.shard_objects(s);
  }
  std::printf("lds_served: %llu puts, %llu gets, %zu keys across %zu shards\n",
              static_cast<unsigned long long>(
                  svc.metrics().counter_total("puts")),
              static_cast<unsigned long long>(
                  svc.metrics().counter_total("gets")),
              keys, svc.num_shards());
  if (opt.verify) {
    bool verified = true;
    for (std::size_t s = 0; s < svc.num_shards(); ++s) {
      const harness::HistoryVerdict v =
          harness::verify_history(svc.shard_history(s));
      verified = verified && v.ok();
      if (!v.liveness_ok()) {
        std::fprintf(stderr, "shard %zu: %zu incomplete operations\n", s,
                     v.incomplete);
        continue;
      }
      if (!v.atomicity.ok) {
        std::fprintf(stderr, "shard %zu: ATOMICITY VIOLATION: %s\n", s,
                     v.atomicity.violation.c_str());
      }
      if (!v.freshness.ok) {
        std::fprintf(stderr, "shard %zu: FRESHNESS VIOLATION: %s\n", s,
                     v.freshness.violation.c_str());
      }
    }
    if (!verified) {
      std::fprintf(stderr, "lds_served: VERIFICATION FAILED\n");
      return 1;
    }
    std::printf("lds_served: shard histories verified atomic + fresh\n");
  }
  return 0;
}

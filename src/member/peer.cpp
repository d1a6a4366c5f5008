#include "member/peer.h"

#include <chrono>
#include <future>

#include "common/assert.h"
#include "lds/cluster.h"
#include "net/latency.h"

namespace lds::member {

namespace {

Fabric::Options fabric_options(const std::string& view_dir) {
  Fabric::Options o;
  o.view_dir = view_dir;
  return o;
}

constexpr int kSyncRetries = 100;       // x 50ms = 5s for activation to land
constexpr double kSyncRetryDelayS = 0.05;
constexpr double kFetchMinIntervalS = 0.2;

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

PeerHost::PeerHost(Options opt)
    : opt_(std::move(opt)), fabric_(fabric_options(opt_.view_dir)) {
  fabric_.set_self(kNoProcess);  // a view naming our endpoint assigns it
  fabric_.set_view_change_hook(
      [this](const View& prev, const View& next) { apply_view(prev, next); });
  fabric_.set_control_handler(
      [this](NodeId conn, ProcessId from, const MemberBody& body) {
        on_control(conn, from, body);
      });
}

PeerHost::~PeerHost() { stop(); }

Status PeerHost::start() {
  LDS_REQUIRE(!started_.load(), "PeerHost::start: already started");
  net::ParallelEngine::Options eopt;
  eopt.lanes = 1;
  eopt.seed = opt_.seed;
  engine_ = std::make_unique<net::ParallelEngine>(eopt);
  net_ = std::make_unique<net::Network>(
      *engine_, /*lane=*/0,
      std::make_unique<net::FixedLatency>(1.0, 1.0, 10.0), opt_.seed);
  net_->set_transport(std::make_unique<RemoteTransport>(fabric_, *net_));
  fabric_.bind(net_.get(), engine_.get(), /*lane=*/0);
  engine_->start();
  started_.store(true);
  Status st = fabric_.listen(opt_.member_port);
  if (!st.ok()) return st;
  fabric_.register_peer(kCoordinatorProcess, opt_.join);
  return fabric_.send_control(kCoordinatorProcess,
                              JoinRequest{fabric_.port(), opt_.claims});
}

void PeerHost::stop() {
  if (!started_.exchange(false)) return;
  fabric_.stop();     // no more incoming frames or lane posts from the wire
  engine_->stop();    // lanes quiescent: server teardown is now safe
  l1_.clear();
  l2_.clear();
  ctx_.reset();
  net_.reset();
  engine_.reset();
}

std::vector<std::size_t> PeerHost::on_lane(
    const std::function<std::vector<std::size_t>()>& read) const {
  // Stopped (or never started): no lane runs, the tables are quiescent.
  if (!started_.load()) return read();
  std::promise<std::vector<std::size_t>> done;
  engine_->post(0, [&] { done.set_value(read()); });
  return done.get_future().get();
}

std::vector<std::size_t> PeerHost::local_l1() const {
  return on_lane([this] {
    std::vector<std::size_t> out;
    for (std::size_t j = 0; j < l1_.size(); ++j) {
      if (l1_[j] != nullptr) out.push_back(j);
    }
    return out;
  });
}

std::vector<std::size_t> PeerHost::local_l2() const {
  return on_lane([this] {
    std::vector<std::size_t> out;
    for (std::size_t i = 0; i < l2_.size(); ++i) {
      if (l2_[i] != nullptr) out.push_back(i);
    }
    return out;
  });
}

// ---- view surgery (on lane 0) -----------------------------------------------

void PeerHost::apply_view(const View&, const View& next) {
  if (ctx_ == nullptr) {
    core::LdsConfig cfg;
    cfg.n1 = next.n1;
    cfg.f1 = next.f1;
    cfg.n2 = next.n2;
    cfg.f2 = next.f2;
    cfg.backend = next.code;
    ctx_ = core::LdsContext::make(std::move(cfg));
    for (std::size_t j = 0; j < next.n1; ++j) {
      ctx_->l1_ids.push_back(core::kL1IdBase + static_cast<NodeId>(j));
    }
    for (std::size_t i = 0; i < next.n2; ++i) {
      ctx_->l2_ids.push_back(core::kL2IdBase + static_cast<NodeId>(i));
    }
    ctx_->encode_engine = engine_.get();
    l1_.resize(next.n1);
    l2_.resize(next.n2);
  } else {
    LDS_REQUIRE(ctx_->cfg.n1 == next.n1 && ctx_->cfg.f1 == next.f1 &&
                    ctx_->cfg.n2 == next.n2 && ctx_->cfg.f2 == next.f2,
                "PeerHost: view changed the deployment geometry");
  }
  const ProcessId self = fabric_.self();
  for (std::size_t j = 0; j < next.n1; ++j) {
    const NodeId id = core::kL1IdBase + static_cast<NodeId>(j);
    const bool mine = next.process_of(id) == self;
    if (mine && l1_[j] == nullptr) {
      l1_[j] = std::make_unique<core::ServerL1>(*net_, ctx_, j);
    } else if (!mine && l1_[j] != nullptr) {
      l1_[j].reset();
    }
  }
  for (std::size_t i = 0; i < next.n2; ++i) {
    const NodeId id = core::kL2IdBase + static_cast<NodeId>(i);
    const bool mine = next.process_of(id) == self;
    if (mine && l2_[i] == nullptr) {
      // Fresh and EMPTY: the coordinator's SyncL2 regenerates the contents
      // through repair_object (the cross-process replace_l2 flow).
      l2_[i] = std::make_unique<core::ServerL2>(*net_, ctx_, i, nullptr);
    } else if (!mine && l2_[i] != nullptr) {
      l2_[i].reset();
    }
  }
}

// ---- control (progress threads) ---------------------------------------------

void PeerHost::on_control(NodeId conn, ProcessId, const MemberBody& body) {
  if (const auto* sync = std::get_if<SyncL2>(&body)) {
    handle_sync(conn, *sync);
    return;
  }
  // Every remaining control signal a peer can receive says "you are behind":
  // StaleEpoch nacks, envelopes under a newer epoch, nacked activations.
  if (std::holds_alternative<StaleEpoch>(body) ||
      std::holds_alternative<Envelope>(body) ||
      std::holds_alternative<ViewActivate>(body)) {
    request_view(now_s());
  }
}

void PeerHost::handle_sync(NodeId conn, const SyncL2& sync) {
  if (!started_.load()) return;
  engine_->post(0, [this, conn, sync] {
    run_sync(conn, sync, /*next_obj=*/0, /*repaired=*/0, /*failed=*/0,
             kSyncRetries);
  });
}

void PeerHost::run_sync(NodeId conn, SyncL2 sync, std::size_t next_obj,
                        std::uint32_t repaired, std::uint32_t failed,
                        int retries) {
  const std::size_t i = sync.l2_index;
  if (i >= l2_.size() || l2_[i] == nullptr) {
    // Activation may still be in flight on another thread; retry briefly.
    if (retries > 0) {
      fabric_.transport().after(kSyncRetryDelayS, [this, conn, sync, next_obj,
                                                   repaired, failed,
                                                   retries]() mutable {
        engine_->post(0, [this, conn, sync = std::move(sync), next_obj,
                          repaired, failed, retries] {
          run_sync(conn, sync, next_obj, repaired, failed, retries - 1);
        });
      });
      return;
    }
    failed += static_cast<std::uint32_t>(sync.objects.size() - next_obj);
    next_obj = sync.objects.size();
  }
  if (next_obj >= sync.objects.size()) {
    fabric_.send_control_conn(
        conn, SyncDone{sync.epoch, sync.l2_index, repaired, failed});
    return;
  }
  const ObjectId obj = sync.objects[next_obj];
  l2_[i]->repair_object(obj, [this, conn, sync, next_obj, repaired,
                              failed](std::optional<Tag> tag) mutable {
    if (tag.has_value()) {
      ++repaired;
    } else {
      ++failed;
    }
    run_sync(conn, sync, next_obj + 1, repaired, failed, kSyncRetries);
  });
}

void PeerHost::request_view(double now) {
  {
    std::lock_guard<std::mutex> lk(fetch_mu_);
    if (now < last_fetch_ + kFetchMinIntervalS) return;
    last_fetch_ = now;
  }
  (void)fabric_.send_control(kCoordinatorProcess, ViewFetch{});
}

}  // namespace lds::member

// Transport: how messages physically move between processes.
//
// Network (net/network.h) owns the *protocol-visible* semantics — reliable
// point-to-point links, cost accounting at send time, latency sampling — and
// delegates the actual movement of a message to a Transport:
//
//   * InProcTransport — the default and the only deterministic one: the
//     message stays a shared_ptr handle (zero serialization, zero copies)
//     and delivery is an event on the destination's lane simulator.  Runs
//     bit-identically for a fixed seed under both SimEngine and
//     ParallelEngine, exactly as before the seam existed.
//
//   * TcpTransport — the real-deployment path: an epoll progress engine.
//     Every message is encoded to its codec frame (net/codec.h) and moved
//     over a TCP socket by one of N progress threads; connections are
//     sharded across threads and their fds stay persistently registered
//     (no per-tick pollfd rebuild).  Incoming byte streams are reassembled
//     through pooled recv blocks (net/reassembly.h) — large payloads are
//     recv'd zero-copy straight into their Value buffers — decoded, and
//     handed to a handler on the owning progress thread.  Not
//     deterministic: the kernel schedules delivery.  This is what lets a
//     StoreService serve remote store::Clients (store/remote.h,
//     tools/lds_served.cpp).
//
// Determinism scope, explicitly: InProc yes (same seed => byte-identical
// histories, costs, metrics), TCP no (wall-clock and kernel interleaving).
#pragma once

#include <sys/uio.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <queue>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "net/codec.h"
#include "net/reassembly.h"
#include "net/sim.h"

namespace lds::net {

class Network;

/// The message-delivery seam of Network.
class Transport {
 public:
  virtual ~Transport() = default;
  virtual const char* name() const = 0;
  /// True when delivery order is a pure function of the seed (InProc); real
  /// transports are not.
  virtual bool deterministic() const = 0;
  /// Move `msg` from `from` to `to`, becoming visible after `delay` —
  /// virtual time for deterministic transports; real transports ignore it
  /// (the kernel imposes its own latency).
  virtual void deliver(NodeId from, NodeId to, MessagePtr msg,
                       SimTime delay) = 0;
};

/// Default transport: the zero-copy in-process path.  Delivery is an event
/// on the owning Network's simulator, scheduled at send time (the paper's
/// reliable-iff-alive link model).
class InProcTransport final : public Transport {
 public:
  explicit InProcTransport(Network& net) : net_(net) {}
  const char* name() const override { return "inproc"; }
  bool deterministic() const override { return true; }
  void deliver(NodeId from, NodeId to, MessagePtr msg, SimTime delay) override;

 private:
  Network& net_;
};

/// Length-prefixed codec frames over real TCP sockets, moved by an epoll
/// progress engine.
///
/// Engine shape: Options::progress_threads shards, each owning an epoll
/// instance, an eventfd wakeup, a recv-block BufferPool, and the
/// connections assigned to it (round-robin by peer id).  Fds are registered
/// once and stay registered; readiness events carry the peer id, so a tick
/// costs one epoll_wait plus work proportional to READY connections — not
/// to all of them, as the old poll(2) rebuild did.
///
/// Roles: after listen() the transport accepts connections (on shard 0) and
/// assigns each an ascending peer id; after connect() it holds an outbound
/// connection to one peer.  One instance can do both (ids come from one
/// counter).  Frames are written zero-copy from the codec's {head, body}
/// split; on receive, payloads >= Options::zero_copy_threshold bytes are
/// recv'd directly into their own Value buffer (wire v2 announces the
/// payload extent in the frame header).  Decoded messages are delivered to
/// the registered handler ON THE OWNING PROGRESS THREAD — handlers must be
/// thread-safe against the rest of the application.
///
/// Flow control: each connection's output backlog is bounded by
/// backlog_high_watermark bytes.  deliver() from an application thread
/// first tries an EAGER send on the caller's thread (an idle socket never
/// waits for a progress tick); if the backlog is at the high watermark it
/// BLOCKS until the progress thread drains it below backlog_low_watermark
/// (or the peer dies — then the frame is dropped, mirroring Network's
/// drop-at-delivery semantics).  A progress thread never blocks on its own
/// backlog: replies generated by handlers queue unboundedly and drain as
/// the loop flushes — blocking there would deadlock the drain.
///
/// deliver()/close_peer() are thread-safe (any thread, any lane); a hostile
/// or corrupt peer is disconnected on its first malformed frame.
class TcpTransport final : public Transport {
 public:
  struct Options {
    /// Frames larger than this disconnect the peer (decode would reject
    /// them anyway; checking at reassembly avoids buffering the garbage).
    std::size_t max_frame_bytes = codec::kMaxFrameBytes;
    /// Idle tick: each progress thread re-checks its stop flag at this
    /// cadence even when no fd is ready.
    int poll_interval_ms = 50;
    /// Outbound connect budget: connect() returns Unavailable when the
    /// handshake has not completed within this many milliseconds.  The
    /// socket is nonblocking before ::connect, so an unroutable or
    /// black-holed address costs at most this much (a blocking ::connect
    /// would sit in the kernel's own retry schedule for minutes).
    int connect_timeout_ms = 5000;
    /// Progress threads; connections are sharded across them by peer id.
    std::size_t progress_threads = 1;
    /// Pooled recv-block size (one live block per connection).
    std::size_t recv_block_bytes = 64 << 10;
    /// Blocks each shard's pool retains for reuse across connections.
    std::size_t pool_retain_blocks = 64;
    /// Payloads at least this large are recv'd zero-copy into their Value.
    std::size_t zero_copy_threshold = 4096;
    /// Per-connection output backlog bounds (bytes).  deliver() from an
    /// application thread blocks at `high` until the backlog drains to
    /// `low`; progress threads are exempt (see class comment).
    std::size_t backlog_high_watermark = 8u << 20;
    std::size_t backlog_low_watermark = 2u << 20;
  };
  /// Called on a progress thread for every decoded incoming frame.
  using Handler = std::function<void(NodeId peer, MessagePtr msg)>;
  using DisconnectHandler = std::function<void(NodeId peer)>;

  TcpTransport() : TcpTransport(Options{}) {}
  explicit TcpTransport(Options opt);
  ~TcpTransport() override;
  TcpTransport(const TcpTransport&) = delete;
  TcpTransport& operator=(const TcpTransport&) = delete;

  /// Bind + listen on 127.0.0.1:`port` (0 = ephemeral, see port()) and start
  /// the progress engine.  Accepted peers deliver frames to `on_message`.
  Status listen(std::uint16_t port, Handler on_message);
  /// The bound listening port (after a successful listen()).
  std::uint16_t port() const { return port_; }

  /// Open an outbound connection; `*peer` receives the id to deliver() to.
  Status connect(const std::string& host, std::uint16_t port,
                 Handler on_message, NodeId* peer);

  /// Observe peer disconnects (progress thread).  Set before listen/connect.
  void set_disconnect_handler(DisconnectHandler h) {
    on_disconnect_ = std::move(h);
  }

  void close_peer(NodeId peer);
  /// Stop the engine, close every socket.  Idempotent; called by the dtor.
  /// Pending after() timers are discarded (callers that need a completion
  /// guarantee fail their pending work after stop — RemoteSession does).
  void stop();

  /// Run `fn` on the timer progress thread after `delay_s` wall seconds
  /// (millisecond resolution; the engine must be running).  Returns false —
  /// and does not retain `fn` — once the transport is stopped.  This is
  /// what gives async RPC deadlines a home without a thread per session.
  bool after(double delay_s, std::function<void()> fn);

  const char* name() const override { return "tcp"; }
  bool deterministic() const override { return false; }
  /// Encode `msg` and queue it to peer `to` (`from` and `delay` are carried
  /// for interface symmetry; TCP imposes its own latency).  Unknown peers
  /// drop the message, mirroring Network's drop-at-delivery semantics.
  /// May block at the backlog high watermark (see class comment).
  void deliver(NodeId from, NodeId to, MessagePtr msg, SimTime delay) override;

  std::uint64_t frames_sent() const { return frames_sent_.load(); }
  std::uint64_t frames_received() const { return frames_received_.load(); }
  std::uint64_t bytes_sent() const { return bytes_sent_.load(); }
  std::uint64_t bytes_received() const { return bytes_received_.load(); }
  std::uint64_t decode_errors() const { return decode_errors_.load(); }
  /// Outbound frames refused because they exceed Options::max_frame_bytes
  /// or were addressed to a dead peer while blocked on its backlog.
  std::uint64_t frames_dropped() const { return frames_dropped_.load(); }
  /// deliver() calls that blocked at the backlog high watermark.
  std::uint64_t backpressure_stalls() const {
    return backpressure_stalls_.load();
  }
  /// Payload bytes recv'd straight into Value buffers (no reassembly copy).
  std::uint64_t zero_copy_bytes_received() const {
    return zero_copy_bytes_.load();
  }
  /// True once stop() ran (or is running), or after the progress engine
  /// died on an epoll failure; the transport cannot restart, and
  /// listen()/connect() report Unavailable instead of queueing work onto a
  /// dead engine.
  bool stopped() const { return stop_.load(std::memory_order_acquire); }

  /// Make the next epoll_wait cycle fail as if epoll itself errored,
  /// exercising the abnormal-exit path (every connection fails through the
  /// disconnect handler, the transport marks itself stopped).
  void inject_poll_failure_for_testing();

  /// Unsent bytes queued toward `peer` (0 for unknown peers).  Membership
  /// reconfiguration uses this to wait for the send side to quiesce before
  /// activating a new view.
  std::size_t backlog_bytes(NodeId peer) const;

  /// The send path's scatter-gather builder: fill `iov` with up to `max_iov`
  /// spans covering the unsent bytes of the frames in `q`, starting
  /// `front_off` bytes into the front frame.  Spans point DIRECTLY into each
  /// frame's head and body buffers — a value payload goes from the caller's
  /// buffer to the kernel with zero staging copies (bench_codec's send
  /// section asserts the aliasing).  Returns the number of iovecs filled.
  static std::size_t gather_frames(const std::deque<codec::Frame>& q,
                                   std::size_t front_off, struct iovec* iov,
                                   std::size_t max_iov);

 private:
  struct Conn {
    int fd = -1;
    Handler handler;
    FrameReassembler rx;
    std::deque<codec::Frame> outq;  ///< front frame partially written
    std::size_t out_off = 0;        ///< bytes of the front frame written
    std::size_t outq_bytes = 0;     ///< unsent bytes across outq
    bool want_write = false;        ///< EPOLLOUT armed

    Conn(BufferPool* pool, FrameReassembler::Options ropt)
        : rx(pool, ropt) {}
  };

  struct Shard {
    mutable std::mutex mu;
    std::condition_variable cv;  ///< backpressure waiters
    int epfd = -1;
    int wakefd = -1;  ///< eventfd
    std::thread thread;
    std::thread::id thread_id;
    std::unique_ptr<BufferPool> pool;
    std::unordered_map<NodeId, std::unique_ptr<Conn>> conns;
  };

  struct Timer {
    std::chrono::steady_clock::time_point when;
    std::uint64_t seq = 0;  ///< FIFO among equal deadlines
    std::function<void()> fn;
    bool operator>(const Timer& o) const {
      return when != o.when ? when > o.when : seq > o.seq;
    }
  };

  Status ensure_engine();  ///< start the shards once (engine_mu_ held)
  void shard_loop(std::size_t shard_index);
  /// Abnormal engine exit: fail every connection through the disconnect
  /// handler and mark the transport stopped (first failing thread only).
  void fail_loop();
  void wake(Shard& sh);
  Shard& shard_of(NodeId peer) {
    return *shards_[static_cast<std::size_t>(peer) % shards_.size()];
  }
  /// Register a new connection (any thread).  Consumes `fd`.
  NodeId adopt_fd(int fd, Handler handler);
  void accept_ready();                  // shard 0 progress thread
  bool read_conn(NodeId peer, Conn& c,  // owning progress thread, sh.mu held
                 std::vector<std::pair<Handler, MessagePtr>>* delivered);
  bool flush_conn(Conn& c);  ///< sh.mu held; false = conn broken
  void update_write_interest(Shard& sh, NodeId peer, Conn& c);
  int next_timer_delay_ms();
  void run_due_timers();

  Options opt_;
  std::mutex engine_mu_;  ///< serializes engine start/stop, listen, connect
  /// Guards what accept_ready() reads (listen_fd_, accept_handler_).  Never
  /// held across a join: stop() holds engine_mu_ while it joins the shard
  /// threads, so the accepting thread must not wait on engine_mu_.
  std::mutex accept_mu_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stop_{false};
  std::atomic<bool> failed_{false};
  std::atomic<bool> inject_poll_failure_{false};
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  Handler accept_handler_;
  DisconnectHandler on_disconnect_;
  std::atomic<NodeId> next_peer_{1};

  std::mutex timer_mu_;
  std::priority_queue<Timer, std::vector<Timer>, std::greater<Timer>> timers_;
  std::uint64_t timer_seq_ = 0;

  std::atomic<std::uint64_t> frames_sent_{0}, frames_received_{0};
  std::atomic<std::uint64_t> bytes_sent_{0}, bytes_received_{0};
  std::atomic<std::uint64_t> decode_errors_{0}, frames_dropped_{0};
  std::atomic<std::uint64_t> backpressure_stalls_{0}, zero_copy_bytes_{0};
};

}  // namespace lds::net

#include "net/transport.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <climits>
#include <cstring>

#include "common/assert.h"
#include "net/network.h"

namespace lds::net {

// ---- InProcTransport --------------------------------------------------------

void InProcTransport::deliver(NodeId from, NodeId to, MessagePtr msg,
                              SimTime delay) {
  net_.deliver_local(from, to, std::move(msg), delay);
}

// ---- TcpTransport -----------------------------------------------------------

namespace {

/// epoll user-data tags for the two non-connection fds of a shard.
constexpr std::uint64_t kWakeTag = ~std::uint64_t{0};
constexpr std::uint64_t kListenTag = ~std::uint64_t{0} - 1;

Status sys_error(const std::string& what) {
  return Status::Unavailable(what + ": " + std::strerror(errno));
}

bool set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

void set_nodelay(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
}

}  // namespace

TcpTransport::TcpTransport(Options opt) : opt_(opt) {
  LDS_REQUIRE(opt_.max_frame_bytes >= codec::kFrameOverheadBytes,
              "TcpTransport: max_frame_bytes smaller than a frame header");
  if (opt_.progress_threads == 0) opt_.progress_threads = 1;
  opt_.backlog_low_watermark =
      std::min(opt_.backlog_low_watermark, opt_.backlog_high_watermark);
}

TcpTransport::~TcpTransport() { stop(); }

Status TcpTransport::ensure_engine() {
  if (running_.load(std::memory_order_acquire)) return Status::Ok();
  LDS_REQUIRE(!stop_.load(std::memory_order_acquire),
              "TcpTransport: reuse after stop()");
  shards_.reserve(opt_.progress_threads);
  for (std::size_t i = 0; i < opt_.progress_threads; ++i) {
    auto sh = std::make_unique<Shard>();
    sh->epfd = ::epoll_create1(0);
    if (sh->epfd < 0) return sys_error("epoll_create1");
    sh->wakefd = ::eventfd(0, EFD_NONBLOCK);
    if (sh->wakefd < 0) {
      const Status s = sys_error("eventfd");
      ::close(sh->epfd);
      return s;
    }
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = kWakeTag;
    LDS_REQUIRE(::epoll_ctl(sh->epfd, EPOLL_CTL_ADD, sh->wakefd, &ev) == 0,
                "TcpTransport: cannot register wake fd");
    sh->pool = std::make_unique<BufferPool>(opt_.recv_block_bytes,
                                            opt_.pool_retain_blocks);
    shards_.push_back(std::move(sh));
  }
  running_.store(true, std::memory_order_release);
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    shards_[i]->thread = std::thread([this, i] { shard_loop(i); });
  }
  return Status::Ok();
}

Status TcpTransport::listen(std::uint16_t port, Handler on_message) {
  std::lock_guard<std::mutex> lk(engine_mu_);
  if (stop_.load(std::memory_order_acquire)) {
    return Status::Unavailable("TcpTransport::listen: transport stopped");
  }
  LDS_REQUIRE(listen_fd_ < 0, "TcpTransport::listen: already listening");
  LDS_REQUIRE(on_message != nullptr, "TcpTransport::listen: null handler");
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return sys_error("socket");
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    const Status s = sys_error("bind");
    ::close(fd);
    return s;
  }
  if (::listen(fd, 64) != 0) {
    const Status s = sys_error("listen");
    ::close(fd);
    return s;
  }
  socklen_t len = sizeof addr;
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);
  set_nonblocking(fd);
  if (const Status s = ensure_engine(); !s.ok()) {
    ::close(fd);
    return s;
  }
  {
    std::lock_guard<std::mutex> alk(accept_mu_);
    accept_handler_ = std::move(on_message);
    listen_fd_ = fd;
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = kListenTag;
  if (::epoll_ctl(shards_[0]->epfd, EPOLL_CTL_ADD, fd, &ev) != 0) {
    const Status s = sys_error("epoll_ctl listen");
    ::close(fd);
    std::lock_guard<std::mutex> alk(accept_mu_);
    listen_fd_ = -1;
    return s;
  }
  return Status::Ok();
}

Status TcpTransport::connect(const std::string& host, std::uint16_t port,
                             Handler on_message, NodeId* peer) {
  LDS_REQUIRE(on_message != nullptr, "TcpTransport::connect: null handler");
  LDS_REQUIRE(peer != nullptr, "TcpTransport::connect: null peer out-param");
  if (stop_.load(std::memory_order_acquire)) {
    return Status::Unavailable("TcpTransport::connect: transport stopped");
  }
  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* res = nullptr;
  const int rc =
      ::getaddrinfo(host.c_str(), std::to_string(port).c_str(), &hints, &res);
  if (rc != 0 || res == nullptr) {
    return Status::Unavailable("resolve " + host + ": " + gai_strerror(rc));
  }
  const std::string where = "connect " + host + ":" + std::to_string(port);
  int fd = -1;
  Status err = Status::Unavailable(where + ": no address worked");
  for (addrinfo* ai = res; ai != nullptr; ai = ai->ai_next) {
    fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) continue;
    // Nonblocking BEFORE ::connect: a blocking connect to a black-holed
    // address would sit in the kernel's retransmit schedule for minutes
    // with no way to honor connect_timeout_ms.
    if (!set_nonblocking(fd)) {
      err = sys_error("fcntl " + host);
      ::close(fd);
      fd = -1;
      continue;
    }
    if (::connect(fd, ai->ai_addr, ai->ai_addrlen) == 0) break;  // localhost
    if (errno != EINPROGRESS) {
      err = sys_error(where);
      ::close(fd);
      fd = -1;
      continue;
    }
    // Handshake in flight: wait for writability within the budget, then
    // read the kernel's verdict from SO_ERROR.
    pollfd pfd{fd, POLLOUT, 0};
    int pn;
    do {
      pn = ::poll(&pfd, 1, opt_.connect_timeout_ms);
    } while (pn < 0 && errno == EINTR);
    if (pn == 0) {
      err = Status::Unavailable(where + ": timed out after " +
                                std::to_string(opt_.connect_timeout_ms) +
                                "ms");
      ::close(fd);
      fd = -1;
      continue;
    }
    if (pn < 0) {
      err = sys_error("poll " + where);
      ::close(fd);
      fd = -1;
      continue;
    }
    int soerr = 0;
    socklen_t slen = sizeof soerr;
    ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &soerr, &slen);
    if (soerr != 0) {
      errno = soerr;
      err = sys_error(where);
      ::close(fd);
      fd = -1;
      continue;
    }
    break;  // connected
  }
  ::freeaddrinfo(res);
  if (fd < 0) return err;
  set_nodelay(fd);

  {
    std::lock_guard<std::mutex> lk(engine_mu_);
    if (stop_.load(std::memory_order_acquire)) {
      ::close(fd);
      return Status::Unavailable("TcpTransport::connect: transport stopped");
    }
    if (const Status s = ensure_engine(); !s.ok()) {
      ::close(fd);
      return s;
    }
  }
  const NodeId id = adopt_fd(fd, std::move(on_message));
  if (id == kNoNode) {
    return Status::Unavailable("TcpTransport::connect: transport stopped");
  }
  *peer = id;
  return Status::Ok();
}

NodeId TcpTransport::adopt_fd(int fd, Handler handler) {
  const NodeId id = next_peer_.fetch_add(1, std::memory_order_relaxed);
  Shard& sh = shard_of(id);
  FrameReassembler::Options ropt;
  ropt.max_frame_bytes = opt_.max_frame_bytes;
  ropt.zero_copy_threshold = opt_.zero_copy_threshold;
  std::lock_guard<std::mutex> lk(sh.mu);
  if (stop_.load(std::memory_order_acquire)) {
    ::close(fd);
    return kNoNode;
  }
  auto conn = std::make_unique<Conn>(sh.pool.get(), ropt);
  conn->fd = fd;
  conn->handler = std::move(handler);
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = static_cast<std::uint64_t>(static_cast<std::uint32_t>(id));
  if (::epoll_ctl(sh.epfd, EPOLL_CTL_ADD, fd, &ev) != 0) {
    ::close(fd);
    return kNoNode;
  }
  sh.conns.emplace(id, std::move(conn));
  return id;
}

void TcpTransport::deliver(NodeId from, NodeId to, MessagePtr msg,
                           SimTime delay) {
  (void)from;
  (void)delay;  // real networks impose their own latency
  LDS_REQUIRE(msg != nullptr, "TcpTransport::deliver: null message");
  codec::Frame frame = codec::encode(*msg);
  if (frame.size() > opt_.max_frame_bytes) {
    // Never put a frame on the wire the peer must treat as hostile (it
    // would disconnect us).  Dropped like an unknown peer; callers that
    // need a verdict check the cap first (RemoteSession does).
    frames_dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  if (!running_.load(std::memory_order_acquire)) return;  // no peers exist
  const std::size_t frame_bytes = frame.size();
  Shard& sh = shard_of(to);
  std::unique_lock<std::mutex> lk(sh.mu);
  auto it = sh.conns.find(to);
  if (it == sh.conns.end()) return;  // disconnected peer: drop, like Network
  Conn* c = it->second.get();
  // Backlog flow control: application threads block at the high watermark
  // until the progress thread drains the queue below the low watermark.
  // The shard's own progress thread is exempt — a handler-generated reply
  // blocking on its own unflushed queue would deadlock the drain.
  if (std::this_thread::get_id() != sh.thread_id &&
      c->outq_bytes + frame_bytes > opt_.backlog_high_watermark) {
    backpressure_stalls_.fetch_add(1, std::memory_order_relaxed);
    sh.cv.wait(lk, [&] {
      if (stop_.load(std::memory_order_acquire)) return true;
      const auto it2 = sh.conns.find(to);
      return it2 == sh.conns.end() ||
             it2->second->outq_bytes <= opt_.backlog_low_watermark;
    });
    it = sh.conns.find(to);
    if (stop_.load(std::memory_order_acquire) || it == sh.conns.end()) {
      frames_dropped_.fetch_add(1, std::memory_order_relaxed);
      return;  // the peer died while we waited: drop, like Network
    }
    c = it->second.get();
  }
  c->outq.push_back(std::move(frame));
  c->outq_bytes += frame_bytes;
  // Eager send on the caller's thread: an idle socket takes the bytes now
  // instead of waiting for the next progress tick.
  if (!flush_conn(*c)) {
    // The socket broke under us.  Force readiness so the owning progress
    // thread reaps the connection through its normal error path (teardown
    // + disconnect handler happen there, never on an application thread).
    ::shutdown(c->fd, SHUT_RDWR);
    wake(sh);
    return;
  }
  update_write_interest(sh, to, *c);
}

void TcpTransport::update_write_interest(Shard& sh, NodeId peer, Conn& c) {
  const bool want = !c.outq.empty();
  if (want == c.want_write) return;
  epoll_event ev{};
  ev.events = want ? (EPOLLIN | EPOLLOUT) : EPOLLIN;
  ev.data.u64 = static_cast<std::uint64_t>(static_cast<std::uint32_t>(peer));
  if (::epoll_ctl(sh.epfd, EPOLL_CTL_MOD, c.fd, &ev) == 0) {
    c.want_write = want;
  }
}

void TcpTransport::close_peer(NodeId peer) {
  if (!running_.load(std::memory_order_acquire)) return;
  Shard& sh = shard_of(peer);
  std::lock_guard<std::mutex> lk(sh.mu);
  const auto it = sh.conns.find(peer);
  if (it == sh.conns.end()) return;
  ::close(it->second->fd);
  sh.conns.erase(it);
  sh.cv.notify_all();  // waiters on this peer's backlog: it is gone
}

void TcpTransport::stop() {
  stop_.store(true, std::memory_order_release);
  std::lock_guard<std::mutex> elk(engine_mu_);
  for (auto& sh : shards_) {
    {
      std::lock_guard<std::mutex> lk(sh->mu);
      sh->cv.notify_all();
    }
    wake(*sh);
  }
  for (auto& sh : shards_) {
    if (sh->thread.joinable()) sh->thread.join();
  }
  for (auto& sh : shards_) {
    std::lock_guard<std::mutex> lk(sh->mu);
    for (auto& [id, c] : sh->conns) ::close(c->fd);
    sh->conns.clear();
    if (sh->wakefd >= 0) {
      ::close(sh->wakefd);
      sh->wakefd = -1;
    }
    if (sh->epfd >= 0) {
      ::close(sh->epfd);
      sh->epfd = -1;
    }
  }
  {
    std::lock_guard<std::mutex> alk(accept_mu_);
    if (listen_fd_ >= 0) {
      ::close(listen_fd_);
      listen_fd_ = -1;
    }
  }
  {
    std::lock_guard<std::mutex> tlk(timer_mu_);
    while (!timers_.empty()) timers_.pop();  // discarded, per the contract
  }
  running_.store(false, std::memory_order_release);
}

bool TcpTransport::after(double delay_s, std::function<void()> fn) {
  LDS_REQUIRE(fn != nullptr, "TcpTransport::after: null callback");
  if (stop_.load(std::memory_order_acquire) ||
      !running_.load(std::memory_order_acquire)) {
    return false;
  }
  const auto when =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(delay_s > 0 ? delay_s : 0));
  {
    std::lock_guard<std::mutex> lk(timer_mu_);
    timers_.push(Timer{when, timer_seq_++, std::move(fn)});
  }
  if (!shards_.empty()) wake(*shards_[0]);  // re-derive the epoll timeout
  return true;
}

int TcpTransport::next_timer_delay_ms() {
  std::lock_guard<std::mutex> lk(timer_mu_);
  if (timers_.empty()) return INT_MAX;
  const auto now = std::chrono::steady_clock::now();
  const auto& top = timers_.top();
  if (top.when <= now) return 0;
  const auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                      top.when - now)
                      .count();
  return static_cast<int>(std::min<long long>(ms + 1, INT_MAX));
}

void TcpTransport::run_due_timers() {
  std::vector<std::function<void()>> due;
  {
    std::lock_guard<std::mutex> lk(timer_mu_);
    const auto now = std::chrono::steady_clock::now();
    while (!timers_.empty() && timers_.top().when <= now) {
      // priority_queue::top is const; the function object is moved out via
      // const_cast, which is safe because pop() follows immediately.
      due.push_back(std::move(const_cast<Timer&>(timers_.top()).fn));
      timers_.pop();
    }
  }
  for (auto& fn : due) fn();  // outside every lock: timers may call deliver()
}

void TcpTransport::wake(Shard& sh) {
  if (sh.wakefd < 0) return;
  const std::uint64_t one = 1;
  [[maybe_unused]] const ssize_t n = ::write(sh.wakefd, &one, sizeof one);
}

void TcpTransport::accept_ready() {
  Handler handler;
  int listen_fd = -1;
  {
    std::lock_guard<std::mutex> lk(accept_mu_);
    handler = accept_handler_;
    listen_fd = listen_fd_;
  }
  while (true) {
    const int cfd = ::accept(listen_fd, nullptr, nullptr);
    if (cfd < 0) break;  // EAGAIN: accepted everything pending
    set_nonblocking(cfd);
    set_nodelay(cfd);
    adopt_fd(cfd, handler);  // round-robins across shards by peer id
  }
}

void TcpTransport::shard_loop(std::size_t shard_index) {
  Shard& sh = *shards_[shard_index];
  {
    std::lock_guard<std::mutex> lk(sh.mu);
    sh.thread_id = std::this_thread::get_id();
  }
  struct Delivery {
    Handler handler;
    NodeId peer;
    MessagePtr msg;
  };
  std::vector<epoll_event> events(128);
  std::vector<std::pair<Handler, MessagePtr>> msgs;  // reused scratch
  std::vector<Delivery> delivered;                   // reused across ticks
  std::vector<NodeId> dropped;
  const bool timer_owner = shard_index == 0;
  while (!stop_.load(std::memory_order_acquire)) {
    int timeout = opt_.poll_interval_ms;
    if (timer_owner) timeout = std::min(timeout, next_timer_delay_ms());
    int n = ::epoll_wait(sh.epfd, events.data(),
                         static_cast<int>(events.size()), timeout);
    if (inject_poll_failure_.exchange(false, std::memory_order_acq_rel)) {
      n = -1;
      errno = EBADF;
    }
    if (n < 0) {
      if (errno == EINTR) continue;
      // epoll itself failed: this engine can no longer move anyone's
      // bytes.  Fail every connection through the disconnect handler
      // (silently stranding them would leave callers waiting forever) and
      // mark the transport stopped so listen()/connect() refuse it.
      fail_loop();
      return;
    }
    if (timer_owner) run_due_timers();
    delivered.clear();
    dropped.clear();
    for (int i = 0; i < n; ++i) {
      const std::uint64_t tag = events[i].data.u64;
      if (tag == kWakeTag) {
        std::uint64_t drainv = 0;
        [[maybe_unused]] const ssize_t r =
            ::read(sh.wakefd, &drainv, sizeof drainv);
        continue;
      }
      if (tag == kListenTag) {
        accept_ready();
        continue;
      }
      const NodeId id = static_cast<NodeId>(static_cast<std::uint32_t>(tag));
      std::lock_guard<std::mutex> lk(sh.mu);
      const auto it = sh.conns.find(id);
      if (it == sh.conns.end()) continue;  // closed between wait and here
      Conn& c = *it->second;
      bool alive = true;
      if (events[i].events & (EPOLLIN | EPOLLHUP | EPOLLERR)) {
        msgs.clear();
        alive = read_conn(id, c, &msgs);
        for (auto& [h, m] : msgs) {
          delivered.push_back({std::move(h), id, std::move(m)});
        }
      }
      if (alive && (events[i].events & EPOLLOUT)) alive = flush_conn(c);
      if (alive) {
        update_write_interest(sh, id, c);
        if (c.outq_bytes <= opt_.backlog_low_watermark) sh.cv.notify_all();
      } else {
        ::close(c.fd);
        sh.conns.erase(it);
        dropped.push_back(id);
        sh.cv.notify_all();  // backlog waiters on this peer: it is gone
      }
    }
    // Handlers run unlocked: they may call deliver()/close_peer() back in.
    for (Delivery& d : delivered) d.handler(d.peer, std::move(d.msg));
    if (on_disconnect_) {
      for (const NodeId id : dropped) on_disconnect_(id);
    }
  }
}

void TcpTransport::fail_loop() {
  stop_.store(true, std::memory_order_release);
  if (failed_.exchange(true, std::memory_order_acq_rel)) return;
  std::vector<NodeId> dropped;
  for (auto& sh : shards_) {
    std::lock_guard<std::mutex> lk(sh->mu);
    for (auto& [id, c] : sh->conns) {
      ::close(c->fd);
      dropped.push_back(id);
    }
    sh->conns.clear();
    sh->cv.notify_all();
    wake(*sh);  // the other progress threads observe stop_ and exit
  }
  if (on_disconnect_) {
    for (const NodeId id : dropped) on_disconnect_(id);
  }
}

void TcpTransport::inject_poll_failure_for_testing() {
  inject_poll_failure_.store(true, std::memory_order_release);
  for (auto& sh : shards_) wake(*sh);
}

bool TcpTransport::read_conn(
    NodeId peer, Conn& c,
    std::vector<std::pair<Handler, MessagePtr>>* delivered) {
  (void)peer;
  const std::uint64_t zc_before = c.rx.zero_copy_bytes();
  const std::size_t before = delivered->size();
  bool eof = false;
  bool broken = false;
  std::vector<MessagePtr> out;
  while (true) {
    const auto [p, cap] = c.rx.recv_span();
    const ssize_t n = ::recv(c.fd, p, cap, 0);
    if (n > 0) {
      bytes_received_.fetch_add(static_cast<std::uint64_t>(n),
                                std::memory_order_relaxed);
      c.rx.commit(static_cast<std::size_t>(n));
      if (const Status s = c.rx.drain(&out); !s.ok()) {
        decode_errors_.fetch_add(1, std::memory_order_relaxed);
        broken = true;  // hostile stream: disconnect
        break;
      }
      continue;
    }
    if (n == 0) {
      eof = true;  // deliver frames already decoded, then drop the conn
      break;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    broken = true;
    break;
  }
  for (auto& m : out) delivered->emplace_back(c.handler, std::move(m));
  frames_received_.fetch_add(delivered->size() - before,
                             std::memory_order_relaxed);
  zero_copy_bytes_.fetch_add(c.rx.zero_copy_bytes() - zc_before,
                             std::memory_order_relaxed);
  return !eof && !broken;
}

std::size_t TcpTransport::gather_frames(const std::deque<codec::Frame>& q,
                                        std::size_t front_off,
                                        struct iovec* iov,
                                        std::size_t max_iov) {
  std::size_t n = 0;
  std::size_t off = front_off;  // nonzero only for the front frame
  for (const codec::Frame& f : q) {
    if (n >= max_iov) break;
    const std::size_t head = f.head.size();
    if (off < head) {
      iov[n].iov_base = const_cast<std::uint8_t*>(f.head.data() + off);
      iov[n].iov_len = head - off;
      ++n;
    }
    const std::size_t body_off = off > head ? off - head : 0;
    if (body_off < f.body.size() && n < max_iov) {
      iov[n].iov_base = const_cast<std::uint8_t*>(f.body.data() + body_off);
      iov[n].iov_len = f.body.size() - body_off;
      ++n;
    }
    off = 0;
  }
  return n;
}

namespace {
/// iovec spans per sendmsg call: enough to gather tens of queued frames
/// (head + body each) into one syscall, small enough to live on the stack.
constexpr std::size_t kSendIovMax = 64;
}  // namespace

bool TcpTransport::flush_conn(Conn& c) {
  while (!c.outq.empty()) {
    iovec iov[kSendIovMax];
    const std::size_t niov =
        gather_frames(c.outq, c.out_off, iov, kSendIovMax);
    msghdr mh{};
    mh.msg_iov = iov;
    mh.msg_iovlen = niov;
    const ssize_t w = ::sendmsg(c.fd, &mh, MSG_NOSIGNAL);
    if (w > 0) {
      bytes_sent_.fetch_add(static_cast<std::uint64_t>(w),
                            std::memory_order_relaxed);
      c.outq_bytes -= static_cast<std::size_t>(w);
      // Retire every frame the gather write fully covered; a partial tail
      // advances the front frame's offset.
      std::size_t rem = static_cast<std::size_t>(w);
      while (rem > 0) {
        const codec::Frame& f = c.outq.front();
        const std::size_t left = f.size() - c.out_off;
        if (rem < left) {
          c.out_off += rem;
          break;
        }
        rem -= left;
        c.out_off = 0;
        c.outq.pop_front();
        frames_sent_.fetch_add(1, std::memory_order_relaxed);
      }
      continue;  // the socket took bytes: try for more
    }
    if (w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
    if (w < 0 && errno == EINTR) continue;
    return false;
  }
  return true;
}

std::size_t TcpTransport::backlog_bytes(NodeId peer) const {
  if (!running_.load(std::memory_order_acquire)) return 0;
  const Shard& sh = *shards_[static_cast<std::size_t>(peer) % shards_.size()];
  std::lock_guard<std::mutex> lk(sh.mu);
  const auto it = sh.conns.find(peer);
  return it == sh.conns.end() ? 0 : it->second->outq_bytes;
}

}  // namespace lds::net

// The epoll progress engine and the async completion-queue client path:
//
//   * FrameReassembler — chunked streams reassemble byte-exact through the
//     pooled block, large payloads take the zero-copy streaming path, pool
//     blocks recycle across connections, hostile prefixes reject.
//   * CompletionQueue pipelining — a burst of async_put/async_get submits
//     without blocking, every handle completes exactly once, outstanding()
//     drains to zero.
//   * Cancellation — close() fails every in-flight async op with
//     Unavailable; a server that never replies cannot strand the client.
//   * Deadlines — an unanswered request expires mid-flight with
//     DeadlineExceeded on the transport's timer thread.
//   * Backpressure — a tiny backlog watermark blocks deliver() against a
//     slow reader instead of growing the queue without bound, and every
//     frame still arrives.
//   * Disconnects — a dying server fails pending async ops promptly.
//   * Callback forms and the read cache over TCP — async callbacks fire
//     off the calling thread, blocking ones inline; cached gets validate
//     with a tag-only round.
//   * Stop vs accept — stop() racing a just-woken accept never deadlocks.
//   * Remote retry/deadline driver — against a scripted server that rejects
//     N puts then answers (or never answers): in the blocking, *_sync and
//     async_* forms alike, retries recover, exhausted retries surface the
//     last reject, deadlines expire on time even mid-backoff, and the
//     attempt count equals the requests the server saw.  close() cancels
//     an op sleeping in backoff instead of stranding it.
//   * Pool fan-out — a multi-connection client against a multi-progress-
//     thread server: concurrent async traffic, then both linearizability
//     checkers over the served histories.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <future>
#include <map>
#include <set>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "harness/stress.h"
#include "net/codec.h"
#include "net/reassembly.h"
#include "net/transport.h"
#include "store/client.h"
#include "store/remote.h"
#include "store/store_service.h"

namespace lds::net {
namespace {

using store::RemoteGet;
using store::RemoteMessage;
using store::RemotePut;
using store::register_store_wire;

codec::Frame store_put_frame(OpId op, const std::string& key,
                             std::size_t value_bytes, Rng& rng) {
  register_store_wire();
  return codec::encode(
      *RemoteMessage::make(op, RemotePut{key, Value(rng.bytes(value_bytes))}));
}

// ---- FrameReassembler --------------------------------------------------------

TEST(FrameReassembler, ReassemblesChunkedStreamsByteExact) {
  register_store_wire();
  Rng rng(41);
  // Frames around every interesting size: tiny, block-straddling, and well
  // past the zero-copy threshold.
  const std::size_t sizes[] = {0, 1, 64, 1000, 4096, 9000, 70000};
  std::vector<std::uint8_t> stream;
  std::size_t want = 0;
  for (const std::size_t n : sizes) {
    const codec::Frame f =
        store_put_frame(100 + want, std::string("k").append(std::to_string(n)),
                        n, rng);
    const Bytes flat = f.to_bytes();
    stream.insert(stream.end(), flat.begin(), flat.end());
    ++want;
  }
  // Feed in every chunking: 1 byte at a time, 7, 1024, and all-at-once.
  for (const std::size_t chunk : {std::size_t{1}, std::size_t{7},
                                  std::size_t{1024}, stream.size()}) {
    BufferPool pool(8 << 10, 4);
    FrameReassembler::Options ropt;
    ropt.zero_copy_threshold = 4096;
    FrameReassembler rx(&pool, ropt);
    std::vector<MessagePtr> out;
    std::size_t off = 0;
    while (off < stream.size()) {
      const auto [p, cap] = rx.recv_span();
      ASSERT_GT(cap, 0u);
      const std::size_t n = std::min({chunk, cap, stream.size() - off});
      std::memcpy(p, stream.data() + off, n);
      rx.commit(n);
      off += n;
      ASSERT_TRUE(rx.drain(&out).ok());
    }
    ASSERT_EQ(out.size(), std::size_t{7}) << "chunk=" << chunk;
    EXPECT_TRUE(rx.idle());
    for (std::size_t i = 0; i < out.size(); ++i) {
      const auto* m = dynamic_cast<const RemoteMessage*>(out[i].get());
      ASSERT_NE(m, nullptr);
      const auto* put = std::get_if<RemotePut>(&m->body());
      ASSERT_NE(put, nullptr);
      EXPECT_EQ(put->value.size(), sizes[i]);
      EXPECT_EQ(put->key, std::string("k").append(std::to_string(sizes[i])));
    }
    // The big payloads never touched the block (zero-copy streaming kicks
    // in whenever a >=threshold payload is not already fully buffered).
    if (chunk < 4096) {
      EXPECT_GT(rx.zero_copy_bytes(), 0u) << "chunk=" << chunk;
    }
  }
}

TEST(FrameReassembler, PoolRecyclesBlocksAcrossConnections) {
  BufferPool pool(4 << 10, 2);
  for (int round = 0; round < 5; ++round) {
    FrameReassembler rx(&pool, FrameReassembler::Options{});
    const auto [p, cap] = rx.recv_span();  // forces block acquisition
    (void)p;
    EXPECT_EQ(cap, 4u << 10);
  }
  // First reassembler allocated; the rest reused its released block.
  EXPECT_EQ(pool.allocations(), 1u);
  EXPECT_EQ(pool.reuses(), 4u);
}

TEST(FrameReassembler, HostileAndOversizedStreamsReject) {
  register_store_wire();
  {  // garbage magic
    FrameReassembler rx(nullptr, FrameReassembler::Options{});
    const std::uint8_t junk[] = {0, 0, 0, 60, 'X', 'X', 9, 9,
                                 9, 9, 9, 9,  9,   9,   9, 9,
                                 9, 9, 9, 9,  9,   9,   9, 9,
                                 9};
    auto [p, cap] = rx.recv_span();
    ASSERT_GE(cap, sizeof junk);
    std::memcpy(p, junk, sizeof junk);
    rx.commit(sizeof junk);
    std::vector<MessagePtr> out;
    EXPECT_FALSE(rx.drain(&out).ok());
  }
  {  // a declared length past the reassembler's cap rejects BEFORE buffering
    Rng rng(7);
    const codec::Frame f = store_put_frame(1, "k", 100000, rng);
    const Bytes flat = f.to_bytes();
    FrameReassembler::Options ropt;
    ropt.max_frame_bytes = 64 << 10;
    FrameReassembler rx(nullptr, ropt);
    auto [p, cap] = rx.recv_span();
    const std::size_t n = std::min(cap, flat.size());
    std::memcpy(p, flat.data(), n);
    rx.commit(n);
    std::vector<MessagePtr> out;
    const Status s = rx.drain(&out);
    EXPECT_FALSE(s.ok());
    EXPECT_NE(s.to_string().find("exceeds"), std::string::npos);
  }
}

// ---- transport timers --------------------------------------------------------

TEST(TcpTransport, AfterRunsOnTimerThreadAndStopsCleanly) {
  TcpTransport server;
  ASSERT_TRUE(server.listen(0, [](NodeId, MessagePtr) {}).ok());
  std::atomic<int> fired{0};
  ASSERT_TRUE(server.after(0.01, [&] { fired.fetch_add(1); }));
  ASSERT_TRUE(server.after(0.02, [&] { fired.fetch_add(1); }));
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(5);
  while (fired.load() < 2 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(fired.load(), 2);
  server.stop();
  // A stopped transport refuses new timers instead of retaining them.
  EXPECT_FALSE(server.after(0.01, [&] { fired.fetch_add(1); }));
}

TEST(TcpTransport, StopRacingAcceptDoesNotDeadlock) {
  // stop() joins the progress threads; a shard thread that has just woken
  // for the listen fd must not wait on a lock stop() holds across that
  // join.  Each round lands a connection at a varying offset before stop().
  constexpr int kThreads = 4, kRounds = 500;
  std::atomic<int> rounds_done{0};
  std::atomic<bool> finished{false};
  std::thread watchdog([&] {
    int last = -1;
    auto last_progress = std::chrono::steady_clock::now();
    while (!finished.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      const int now_done = rounds_done.load();
      const auto now = std::chrono::steady_clock::now();
      if (now_done != last) {
        last = now_done;
        last_progress = now;
      } else if (now - last_progress > std::chrono::seconds(5)) {
        // A deadlocked stop() cannot be joined; fail the whole binary.
        std::fprintf(stderr,
                     "StopRacingAcceptDoesNotDeadlock: no progress for 5 s "
                     "after %d rounds (stop/accept deadlock)\n",
                     now_done);
        std::_Exit(EXIT_FAILURE);
      }
    }
  });
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int i = 0; i < kRounds; ++i) {
        TcpTransport server;
        ASSERT_TRUE(server.listen(0, [](NodeId, MessagePtr) {}).ok());
        const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
        ASSERT_GE(fd, 0);
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        addr.sin_port = htons(server.port());
        ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr);
        std::this_thread::sleep_for(
            std::chrono::microseconds((i + t) * 37 % 300));
        server.stop();
        // Abortive close: no TIME_WAIT on either side, so thousands of
        // rounds do not exhaust the ephemeral port range.
        const linger abort_close{1, 0};
        ::setsockopt(fd, SOL_SOCKET, SO_LINGER, &abort_close,
                     sizeof abort_close);
        ::close(fd);
        rounds_done.fetch_add(1);
      }
    });
  }
  for (auto& w : workers) w.join();
  finished.store(true);
  watchdog.join();
  EXPECT_EQ(rounds_done.load(), kThreads * kRounds);
}

// ---- backpressure ------------------------------------------------------------

TEST(TcpTransport, BacklogWatermarkBlocksInsteadOfGrowingUnbounded) {
  register_store_wire();
  // Server reads slowly: its handler sleeps, stalling its progress thread,
  // so the kernel buffers fill and the client's backlog grows.
  TcpTransport server;
  std::atomic<std::uint64_t> received{0};
  ASSERT_TRUE(server
                  .listen(0,
                          [&](NodeId, MessagePtr) {
                            std::this_thread::sleep_for(
                                std::chrono::milliseconds(1));
                            received.fetch_add(1);
                          })
                  .ok());

  TcpTransport::Options copt;
  copt.backlog_high_watermark = 64 << 10;  // tiny: one big frame fills it
  copt.backlog_low_watermark = 16 << 10;
  TcpTransport client(copt);
  NodeId peer = 0;
  ASSERT_TRUE(client
                  .connect("127.0.0.1", server.port(),
                           [](NodeId, MessagePtr) {}, &peer)
                  .ok());

  // Enough bytes to overflow loopback kernel buffering (tens of MB), so the
  // client's user-space backlog genuinely fills against the slow reader.
  Rng rng(3);
  const std::uint64_t kFrames = 240;
  const Value big(rng.bytes(256 << 10));
  for (std::uint64_t i = 0; i < kFrames; ++i) {
    client.deliver(0, peer, RemoteMessage::make(i, RemotePut{"k", big}), 0);
  }
  // Every frame still arrives (blocked, never dropped) ...
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (received.load() < kFrames &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(received.load(), kFrames);
  EXPECT_EQ(client.frames_dropped(), 0u);
  // ... and the watermark actually engaged.
  EXPECT_GT(client.backpressure_stalls(), 0u);
  // Large payloads took the zero-copy receive path on the server.
  EXPECT_GT(server.zero_copy_bytes_received(), 0u);
  client.stop();
  server.stop();
}

// ---- completion queue over a real served store -------------------------------

struct ServedStore {
  store::StoreOptions sopt;
  std::unique_ptr<store::StoreService> svc;

  explicit ServedStore(std::size_t net_threads = 1, std::size_t shards = 2) {
    sopt.shards = shards;
    sopt.engine_mode = EngineMode::Parallel;
    sopt.engine_threads = 2;
    sopt.seed = 23;
    svc = std::make_unique<store::StoreService>(sopt);
    store::StoreService::ListenOptions lo;
    lo.net_threads = net_threads;
    const Status st = svc->listen(0, lo);
    EXPECT_TRUE(st.ok()) << st.to_string();
  }
};

TEST(AsyncClient, CompletionQueuePipeliningCompletesEveryHandle) {
  ServedStore served;
  Status st;
  auto client = store::Client::connect("127.0.0.1", served.svc->listen_port(),
                                       &st);
  ASSERT_NE(client, nullptr) << st.to_string();

  // Pipeline a burst of puts to distinct keys; none of these submissions
  // blocks on a reply.  (Distinct keys: concurrent same-key puts may
  // linearize in any order, so "last submitted wins" would be unsound.)
  const int kOps = 64;
  std::set<std::uint64_t> put_handles;
  for (int i = 0; i < kOps; ++i) {
    put_handles.insert(client->async_put(
        "key-" + std::to_string(i),
        Value::from_string(std::string("v").append(std::to_string(i)))));
  }
  ASSERT_EQ(put_handles.size(), static_cast<std::size_t>(kOps));

  auto& cq = client->completions();
  std::set<std::uint64_t> done;
  store::Completion c;
  while (cq.outstanding() > 0) {
    ASSERT_TRUE(cq.wait(&c, 30.0));
    EXPECT_TRUE(c.put.status.ok()) << c.put.status.to_string();
    EXPECT_EQ(c.kind, store::Completion::Kind::Put);
    EXPECT_TRUE(done.insert(c.handle).second) << "duplicate completion";
  }
  EXPECT_EQ(done, put_handles);

  // Now pipelined gets: every key reads back its (unique) written value —
  // all puts completed before the first get was submitted.
  std::map<std::uint64_t, std::string> want;
  for (int i = 0; i < kOps; ++i) {
    const std::string key = "key-" + std::to_string(i);
    want[client->async_get(key)] = std::string("v").append(std::to_string(i));
  }
  while (cq.outstanding() > 0) {
    ASSERT_TRUE(cq.wait(&c, 30.0));
    ASSERT_EQ(c.kind, store::Completion::Kind::Get);
    ASSERT_TRUE(c.get.status.ok()) << c.get.status.to_string();
    ASSERT_EQ(want.count(c.handle), 1u);
    EXPECT_EQ(c.get.value, Value::from_string(want[c.handle]));
  }
  EXPECT_FALSE(cq.poll(&c));
}

TEST(AsyncClient, CloseCancelsInFlightOpsWithUnavailable) {
  register_store_wire();
  // A server that accepts and then ignores every request: the only way an
  // async op can complete is through cancellation.
  TcpTransport silent;
  ASSERT_TRUE(silent.listen(0, [](NodeId, MessagePtr) {}).ok());

  Status st;
  auto client = store::Client::connect("127.0.0.1", silent.port(), &st);
  ASSERT_NE(client, nullptr) << st.to_string();
  auto& cq = client->completions();
  for (int i = 0; i < 8; ++i) {
    client->async_get("key-" + std::to_string(i));
  }
  EXPECT_EQ(cq.outstanding(), 8u);
  client->close();
  store::Completion c;
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(cq.wait(&c, 10.0)) << "completion " << i << " never arrived";
    EXPECT_TRUE(c.get.status.is(StatusCode::kUnavailable))
        << c.get.status.to_string();
  }
  EXPECT_EQ(cq.outstanding(), 0u);
  // New submissions after close fail immediately, still via the queue.
  client->async_put("k", Value::from_string("v"));
  ASSERT_TRUE(cq.wait(&c, 10.0));
  EXPECT_TRUE(c.put.status.is(StatusCode::kUnavailable));
  silent.stop();
}

TEST(AsyncClient, DeadlineExpiresMidFlight) {
  register_store_wire();
  TcpTransport silent;
  ASSERT_TRUE(silent.listen(0, [](NodeId, MessagePtr) {}).ok());

  Status st;
  auto client = store::Client::connect("127.0.0.1", silent.port(), &st);
  ASSERT_NE(client, nullptr) << st.to_string();
  store::OpOptions opts;
  opts.deadline = 0.1;  // wall-clock seconds in remote mode
  const auto t0 = std::chrono::steady_clock::now();
  client->async_get("key", opts);
  store::Completion c;
  ASSERT_TRUE(client->completions().wait(&c, 30.0));
  const double waited =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_TRUE(c.get.status.is(StatusCode::kDeadlineExceeded))
      << c.get.status.to_string();
  EXPECT_LT(waited, 10.0);  // expiry, not a hung RPC
  silent.stop();
}

TEST(AsyncClient, ServerDeathFailsPendingOpsPromptly) {
  register_store_wire();
  auto silent = std::make_unique<TcpTransport>();
  ASSERT_TRUE(silent->listen(0, [](NodeId, MessagePtr) {}).ok());

  Status st;
  auto client = store::Client::connect("127.0.0.1", silent->port(), &st);
  ASSERT_NE(client, nullptr) << st.to_string();
  for (int i = 0; i < 4; ++i) client->async_get("key");
  EXPECT_EQ(client->completions().outstanding(), 4u);
  silent->stop();  // connection drops; client sees EOF on its progress thread
  store::Completion c;
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(client->completions().wait(&c, 10.0));
    EXPECT_TRUE(c.get.status.is(StatusCode::kUnavailable))
        << c.get.status.to_string();
  }
}

TEST(AsyncClient, CallbackFormsAndTheReadCacheWorkRemotely) {
  ServedStore served;
  store::Client::ConnectOptions copts;
  copts.cache.enabled = true;
  Status st;
  auto client = store::Client::connect("127.0.0.1", served.svc->listen_port(),
                                       &st, copts);
  ASSERT_NE(client, nullptr) << st.to_string();
  ASSERT_TRUE(client->cache_enabled());

  // Callback-style async forms complete off the calling thread.
  std::promise<store::PutResult> put_done;
  client->async_put("k", Value::from_string("v1"),
                    [&](const store::PutResult& r) { put_done.set_value(r); });
  const store::PutResult put = put_done.get_future().get();
  ASSERT_TRUE(put.status.ok()) << put.status.to_string();
  std::promise<store::PutResult> cas_done;
  client->async_put_if(
      "k", Value::from_string("v2"), put.version,
      [&](const store::PutResult& r) { cas_done.set_value(r); });
  const store::PutResult cas = cas_done.get_future().get();
  ASSERT_TRUE(cas.status.ok()) << cas.status.to_string();
  EXPECT_EQ(client->cache_size(), 1u);  // this client's own write

  // Both get forms validate the cached entry with a tag-only round and
  // serve the cached value.
  std::promise<store::GetResult> get_done;
  client->async_get("k",
                    [&](const store::GetResult& r) { get_done.set_value(r); });
  const store::GetResult got = get_done.get_future().get();
  ASSERT_TRUE(got.status.ok()) << got.status.to_string();
  EXPECT_EQ(got.value, Value::from_string("v2"));
  store::GetResult inline_got;
  client->get("k", [&](const store::GetResult& r) { inline_got = r; });
  ASSERT_TRUE(inline_got.status.ok()) << inline_got.status.to_string();
  EXPECT_EQ(inline_got.value, Value::from_string("v2"));
  EXPECT_EQ(client->metrics().counter_total("cache_hits"), 2u);
  EXPECT_EQ(client->metrics().counter_total("cache_validation_rounds"), 2u);
}

TEST(AsyncClient, PoolFanOutHistoriesPassBothVerifiers) {
  ServedStore served(/*net_threads=*/2, /*shards=*/2);
  store::Client::ConnectOptions copts;
  copts.connections = 4;
  Status st;
  auto client = store::Client::connect("127.0.0.1", served.svc->listen_port(),
                                       &st, copts);
  ASSERT_NE(client, nullptr) << st.to_string();

  // Writer+reader threads hammer a small keyspace through the async API
  // across the 4-connection pool.
  const int kThreads = 3, kOpsPerThread = 60;
  std::vector<std::thread> workers;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      Rng rng(100 + t);
      for (int i = 0; i < kOpsPerThread; ++i) {
        const std::string key =
            std::string("k").append(std::to_string(rng.uniform_int(0, 4)));
        if (rng.bernoulli(0.5)) {
          const auto r = client->put_sync(
              key, Value::from_string(std::string("t")
                                          .append(std::to_string(t))
                                          .append("-")
                                          .append(std::to_string(i))));
          if (!r.ok()) failures.fetch_add(1);
        } else {
          const auto r = client->get_sync(key);
          if (!r.ok() && !r.status().is(StatusCode::kNotFound)) {
            failures.fetch_add(1);
          }
        }
      }
    });
  }
  // Plus an async burst from this thread, drained through the queue.
  auto& cq = client->completions();
  for (int i = 0; i < 40; ++i) {
    client->async_put(std::string("k").append(std::to_string(i % 5)),
                      Value::from_string("async-" + std::to_string(i)));
  }
  store::Completion c;
  while (cq.outstanding() > 0) {
    ASSERT_TRUE(cq.wait(&c, 60.0));
    EXPECT_TRUE(c.put.status.ok()) << c.put.status.to_string();
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(failures.load(), 0);

  // multi_* fan out concurrently over the pool and stay correct.
  std::vector<store::KeyValue> entries;
  for (int i = 0; i < 16; ++i) {
    entries.push_back({"bulk-" + std::to_string(i),
                       Value::from_string(
                           std::string("b").append(std::to_string(i)))});
  }
  const auto puts = client->multi_put_sync(entries);
  ASSERT_EQ(puts.size(), entries.size());
  for (const auto& r : puts) EXPECT_TRUE(r.status.ok());
  std::vector<std::string> keys;
  for (const auto& e : entries) keys.push_back(e.key);
  const auto gets = client->multi_get_sync(keys);
  ASSERT_EQ(gets.size(), keys.size());
  for (std::size_t i = 0; i < gets.size(); ++i) {
    ASSERT_TRUE(gets[i].status.ok()) << gets[i].status.to_string();
    EXPECT_EQ(gets[i].value, entries[i].value);
  }

  client->close();
  served.svc->stop_listening();
  served.svc->quiesce();
  for (std::size_t s = 0; s < served.svc->num_shards(); ++s) {
    const auto& h = served.svc->shard_history(s);
    EXPECT_TRUE(h.all_complete());
    EXPECT_TRUE(h.check_atomicity(Bytes{}).ok);
    EXPECT_TRUE(harness::verify_read_freshness(h).ok);
  }
}

// ---- remote deadline/retry driver -------------------------------------------

using store::RemotePutIf;
using store::RemoteReply;

/// A scripted store server.  Puts (plain or conditional) are answered with
/// AdmissionReject for the first `rejects` requests, then with Ok — or never
/// at all when `silent` is set.  Gets always answer NotFound.
class ScriptedServer {
 public:
  explicit ScriptedServer(int rejects, bool silent = false)
      : rejects_(rejects), silent_(silent) {
    register_store_wire();
    EXPECT_TRUE(transport_
                    .listen(0,
                            [this](NodeId peer, MessagePtr msg) {
                              on_request(peer, msg);
                            })
                    .ok());
  }
  std::uint16_t port() const { return transport_.port(); }
  /// Put requests seen so far (every attempt is one request).
  int puts() const { return puts_.load(); }
  int conditional_puts() const { return conditional_puts_.load(); }

 private:
  void on_request(NodeId peer, const MessagePtr& msg) {
    const auto* m = dynamic_cast<const RemoteMessage*>(msg.get());
    if (m == nullptr) return;
    RemoteReply r;
    if (std::holds_alternative<RemoteGet>(m->body())) {
      r.code = StatusCode::kNotFound;
    } else {
      if (std::holds_alternative<RemotePutIf>(m->body())) {
        conditional_puts_.fetch_add(1);
      }
      const int n = puts_.fetch_add(1) + 1;
      if (n <= rejects_) {
        r.code = StatusCode::kAdmissionReject;
        r.message = "scripted reject " + std::to_string(n);
      } else if (silent_) {
        return;
      } else {
        r.version_known = true;
        r.tag = Tag{static_cast<std::uint64_t>(n), 1};
      }
    }
    transport_.deliver(0, peer, RemoteMessage::make(m->op(), std::move(r)), 0);
  }

  const int rejects_;
  const bool silent_;
  std::atomic<int> puts_{0};
  std::atomic<int> conditional_puts_{0};
  TcpTransport transport_;  // last member: stops before the counters die
};

/// The three ways to issue one remote put.
enum class Form { Blocking, Sync, Async };

struct PutOutcome {
  Status status;
  Version version;
  double seconds = 0;
};

/// Issue one (optionally conditional) put through `form` and time it.
PutOutcome put_via(store::Client& client, Form form, const std::string& key,
                   store::OpOptions opts, bool conditional = false) {
  const Value v = Value::from_string("v");
  const Version expected(kTag0);
  const auto t0 = std::chrono::steady_clock::now();
  PutOutcome out;
  switch (form) {
    case Form::Blocking: {
      bool fired = false;
      const auto cb = [&](const store::PutResult& r) {
        fired = true;
        out.status = r.status;
        out.version = r.version;
      };
      if (conditional) {
        client.put_if_version(key, v, expected, cb, opts);
      } else {
        client.put(key, v, cb, opts);
      }
      // The remote callback contract: fired inline, before the call returns.
      EXPECT_TRUE(fired);
      break;
    }
    case Form::Sync: {
      const Result<Version> r =
          conditional ? client.put_if_version_sync(key, v, expected, opts)
                      : client.put_sync(key, v, opts);
      out.status = r.status();
      if (r.ok()) out.version = r.value();
      break;
    }
    case Form::Async: {
      if (conditional) {
        client.async_put_if(key, v, expected, opts);
      } else {
        client.async_put(key, v, opts);
      }
      store::Completion c;
      EXPECT_TRUE(client.completions().wait(&c, 30.0));
      out.status = c.put.status;
      out.version = c.put.version;
      break;
    }
  }
  out.seconds = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
  return out;
}

std::unique_ptr<store::Client> connect_to(const ScriptedServer& server) {
  Status st;
  auto client = store::Client::connect("127.0.0.1", server.port(), &st);
  EXPECT_NE(client, nullptr) << st.to_string();
  return client;
}

store::OpOptions retrying(std::size_t attempts, double backoff,
                          double deadline = 0) {
  store::OpOptions opts;
  opts.retry.max_attempts = attempts;
  opts.retry.backoff = backoff;
  opts.deadline = deadline;
  return opts;
}

constexpr Form kForms[] = {Form::Blocking, Form::Sync, Form::Async};

TEST(RemoteRetry, RecoversFromAdmissionRejectInEveryForm) {
  for (const Form form : kForms) {
    for (const bool conditional : {false, true}) {
      ScriptedServer server(/*rejects=*/2);
      auto client = connect_to(server);
      ASSERT_NE(client, nullptr);
      const PutOutcome r =
          put_via(*client, form, "k", retrying(3, 0.01), conditional);
      EXPECT_TRUE(r.status.ok()) << r.status.to_string();
      // The third request was the first the server accepted.
      EXPECT_EQ(r.version, Version(Tag{3, 1}));
      EXPECT_EQ(server.puts(), 3);
      EXPECT_EQ(server.conditional_puts(), conditional ? 3 : 0);
    }
  }
}

TEST(RemoteRetry, ExhaustedRetriesSurfaceTheLastReject) {
  for (const Form form : kForms) {
    ScriptedServer server(/*rejects=*/1000);
    auto client = connect_to(server);
    ASSERT_NE(client, nullptr);
    const PutOutcome r = put_via(*client, form, "k", retrying(3, 0.01));
    EXPECT_TRUE(r.status.is(StatusCode::kAdmissionReject))
        << r.status.to_string();
    EXPECT_NE(r.status.to_string().find("scripted reject 3"),
              std::string::npos)
        << r.status.to_string();
    EXPECT_EQ(server.puts(), 3);
  }
  // No retry policy: exactly one attempt.
  ScriptedServer server(/*rejects=*/1000);
  auto client = connect_to(server);
  ASSERT_NE(client, nullptr);
  EXPECT_TRUE(put_via(*client, Form::Sync, "k", {})
                  .status.is(StatusCode::kAdmissionReject));
  EXPECT_EQ(server.puts(), 1);
}

TEST(RemoteRetry, DeadlineExpiresDuringBackoffOnTime) {
  constexpr double kDeadline = 0.2;
  for (const Form form : kForms) {
    ScriptedServer server(/*rejects=*/1000);
    auto client = connect_to(server);
    ASSERT_NE(client, nullptr);
    // The first reject starts a 5 s backoff; the 0.2 s deadline must not
    // wait for it.
    const PutOutcome r =
        put_via(*client, form, "k", retrying(10, 5.0, kDeadline));
    EXPECT_TRUE(r.status.is(StatusCode::kDeadlineExceeded))
        << r.status.to_string();
    EXPECT_GE(r.seconds, kDeadline - 0.01);
    EXPECT_LT(r.seconds, kDeadline + 1.0);
    EXPECT_EQ(server.puts(), 1);
  }
}

TEST(RemoteRetry, DeadlineExpiresAgainstASilentServer) {
  constexpr double kDeadline = 0.2;
  for (const Form form : kForms) {
    ScriptedServer server(/*rejects=*/0, /*silent=*/true);
    auto client = connect_to(server);
    ASSERT_NE(client, nullptr);
    const PutOutcome r =
        put_via(*client, form, "k", retrying(3, 0.01, kDeadline));
    EXPECT_TRUE(r.status.is(StatusCode::kDeadlineExceeded))
        << r.status.to_string();
    EXPECT_GE(r.seconds, kDeadline - 0.01);
    EXPECT_LT(r.seconds, kDeadline + 1.0);
    EXPECT_EQ(server.puts(), 1);
  }
}

TEST(RemoteRetry, MultiOpsRetryEachSubOperation) {
  ScriptedServer server(/*rejects=*/3);
  auto client = connect_to(server);
  ASSERT_NE(client, nullptr);
  std::vector<store::KeyValue> entries;
  for (int i = 0; i < 4; ++i) {
    entries.push_back({std::string("k").append(std::to_string(i)),
                       Value::from_string("v")});
  }
  std::vector<store::PutResult> puts;
  client->multi_put(
      entries, [&](std::vector<store::PutResult> r) { puts = std::move(r); },
      retrying(4, 0.01));
  ASSERT_EQ(puts.size(), entries.size());  // fired inline
  for (const auto& r : puts) EXPECT_TRUE(r.status.ok()) << r.status.to_string();
  EXPECT_EQ(server.puts(), 4 + 3);
  std::vector<store::GetResult> gets;
  client->multi_get({"k0", "k1"}, [&](std::vector<store::GetResult> r) {
    gets = std::move(r);
  });
  ASSERT_EQ(gets.size(), 2u);
  for (const auto& r : gets) EXPECT_TRUE(r.status.is(StatusCode::kNotFound));
}

TEST(RemoteRetry, CloseCancelsAnOpWaitingInBackoff) {
  ScriptedServer server(/*rejects=*/1000);
  auto client = connect_to(server);
  ASSERT_NE(client, nullptr);
  client->async_put("k", Value::from_string("v"), retrying(5, 5.0));
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (server.puts() < 1 && std::chrono::steady_clock::now() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(server.puts(), 1);
  // The reject is in; the op now sleeps in its 5 s backoff.  Give the reply
  // a moment to arrive, then close: the op must not be stranded.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  client->close();
  store::Completion c;
  ASSERT_TRUE(client->completions().wait(&c, 2.0));
  EXPECT_TRUE(c.put.status.is(StatusCode::kUnavailable))
      << c.put.status.to_string();
  EXPECT_EQ(server.puts(), 1);
}

}  // namespace
}  // namespace lds::net

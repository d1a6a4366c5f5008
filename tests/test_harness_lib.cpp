// The shared harness library: how a client-observed outcome becomes a
// history record (ClientRecorder), the one end-of-run verdict
// (verify_history), the closed client loop (ClientWorkers), and the child
// process helpers (spawn / Child / wait_for_port).
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <csignal>
#include <filesystem>
#include <fstream>
#include <thread>
#include <vector>

#include "harness/proc.h"
#include "harness/recorder.h"
#include "harness/stress.h"
#include "store/store_service.h"

namespace lds::harness {
namespace {

using store::GetResult;
using store::PutResult;

PutResult coalesced_put(Tag t) {
  PutResult r = PutResult::success(t);
  r.coalesced = true;
  return r;
}

// ---- ClientRecorder: one case per outcome class ----------------------------

struct OutcomeCase {
  const char* name;
  bool put;
  PutResult put_result;
  GetResult get_result;
  bool recorded;                     ///< a history record exists
  bool complete;                     ///< ... and it completed
  std::size_t ClientCounts::*count;  ///< the one counter it bumps
};

TEST(ClientRecorder, EachOutcomeClassRecordsAndCountsAsSpecified) {
  const Tag t1{1, 7};
  const Value v = Value::from_string("v");
  const std::vector<OutcomeCase> cases = {
      {"ok put", true, PutResult::success(t1), {}, true, true,
       &ClientCounts::writes_completed},
      {"coalesced put", true, coalesced_put(t1), {}, false, false,
       &ClientCounts::writes_coalesced},
      {"rejected put", true, PutResult::failure(Status::AdmissionReject()),
       {}, false, false, &ClientCounts::writes_rejected},
      {"invalid put", true, PutResult::failure(Status::InvalidArgument()), {},
       false, false, &ClientCounts::writes_rejected},
      {"put lost in flight", true, PutResult::failure(Status::Unavailable()),
       {}, true, false, &ClientCounts::writes_unknown},
      {"put past deadline", true,
       PutResult::failure(Status::DeadlineExceeded()), {}, true, false,
       &ClientCounts::writes_unknown},
      {"ok get", false, {}, GetResult::success(t1, v), true, true,
       &ClientCounts::reads_completed},
      {"NotFound get", false, {}, GetResult::failure(Status::NotFound()),
       true, true, &ClientCounts::reads_completed},
      {"failed get", false, {}, GetResult::failure(Status::Unavailable()),
       false, false, &ClientCounts::reads_failed},
  };
  for (const OutcomeCase& c : cases) {
    SCOPED_TRACE(c.name);
    ClientRecorder rec;
    if (c.put) {
      rec.record_put("k", make_op_id(1, 1), 1, 1.0, 2.0, c.put_result, v);
    } else {
      rec.record_get("k", make_op_id(1, 1), 1, 1.0, 2.0, c.get_result);
    }
    const auto& ops = rec.history().ops();
    ASSERT_EQ(ops.size(), c.recorded ? 1u : 0u);
    ClientCounts want;
    ++(want.*c.count);
    const ClientCounts got = rec.counts();
    EXPECT_EQ(got.writes_completed, want.writes_completed);
    EXPECT_EQ(got.writes_unknown, want.writes_unknown);
    EXPECT_EQ(got.writes_coalesced, want.writes_coalesced);
    EXPECT_EQ(got.writes_rejected, want.writes_rejected);
    EXPECT_EQ(got.reads_completed, want.reads_completed);
    EXPECT_EQ(got.reads_failed, want.reads_failed);
    if (!c.recorded) continue;
    const core::OpRecord& op = ops[0];
    EXPECT_EQ(op.kind, c.put ? core::OpKind::Write : core::OpKind::Read);
    EXPECT_EQ(op.complete, c.complete);
    EXPECT_EQ(op.invoked, 1.0);
    if (!c.complete) continue;
    EXPECT_EQ(op.responded, 2.0);
    if (c.put || c.get_result.status.ok()) {
      EXPECT_EQ(op.tag, t1);
      EXPECT_EQ(op.value, v);
    } else {
      // NotFound is the register's initial value.
      EXPECT_EQ(op.tag, kTag0);
      EXPECT_TRUE(op.value.empty());
    }
  }
}

TEST(ClientRecorder, InternsKeysInFirstSeenOrder) {
  ClientRecorder rec;
  const GetResult nf = GetResult::failure(Status::NotFound());
  rec.record_get("b", make_op_id(1, 1), 1, 0, 1, nf);
  rec.record_get("a", make_op_id(1, 2), 1, 0, 1, nf);
  rec.record_get("b", make_op_id(1, 3), 1, 0, 1, nf);
  const auto& ops = rec.history().ops();
  ASSERT_EQ(ops.size(), 3u);
  EXPECT_EQ(ops[0].obj, 0u);
  EXPECT_EQ(ops[1].obj, 1u);
  EXPECT_EQ(ops[2].obj, 0u);
}

// ---- reconcile ---------------------------------------------------------------

TEST(ClientRecorder, ReconcileBindsAnUnknownWriteOnlyToAReadOfItsValue) {
  Rng rng(3);
  const Value lost = make_value(0, 1, 16, rng);
  const Value other = make_value(0, 2, 16, rng);
  const Tag t{5, 100};

  ClientRecorder rec;
  rec.record_put("k", make_op_id(100, 1), 100, 1.0, 2.0,
                 PutResult::failure(Status::Unavailable()), lost);
  rec.record_put("k", make_op_id(100, 2), 100, 3.0, 4.0,
                 PutResult::failure(Status::Unavailable()), other);
  // A completed read returned `lost` under tag t; nothing ever read `other`.
  rec.record_get("k", make_op_id(101, 1), 101, 5.0, 6.0,
                 GetResult::success(t, lost));
  // A NotFound read binds nothing.
  rec.record_get("k", make_op_id(101, 2), 101, 0.0, 0.5,
                 GetResult::failure(Status::NotFound()));
  rec.reconcile();

  const auto& ops = rec.history().ops();
  ASSERT_EQ(ops.size(), 4u);
  EXPECT_EQ(ops[0].tag, t);  // bound to the read's tag
  EXPECT_EQ(ops[0].value, lost);
  EXPECT_FALSE(ops[0].complete);  // still an unknown-outcome op
  EXPECT_EQ(ops[1].tag, Tag{});  // unbound
  EXPECT_TRUE(ops[1].value.empty());
  EXPECT_EQ(rec.counts().writes_bound, 1u);
  EXPECT_EQ(rec.counts().writes_unknown, 2u);

  // The bound write accounts for the read's value (P3 holds); only the
  // unknown ops' liveness is left, which these harnesses tolerate.
  const HistoryVerdict v = verify_history(rec.history());
  EXPECT_EQ(v.incomplete, 2u);
  EXPECT_TRUE(v.atomicity.ok) << v.atomicity.violation;
  EXPECT_TRUE(v.freshness.ok) << v.freshness.violation;
  EXPECT_EQ(v.violation(), "liveness: 2 ops never completed");
  EXPECT_EQ(v.violation(/*with_liveness=*/false), "");

  // Reconciling again binds nothing new.
  rec.reconcile();
  EXPECT_EQ(rec.counts().writes_bound, 1u);
}

TEST(ClientRecorder, UnreconciledReadOfAnUnknownWriteIsAViolation) {
  Rng rng(4);
  const Value lost = make_value(0, 1, 16, rng);
  ClientRecorder rec;
  rec.record_put("k", make_op_id(100, 1), 100, 1.0, 2.0,
                 PutResult::failure(Status::Unavailable()), lost);
  rec.record_get("k", make_op_id(101, 1), 101, 5.0, 6.0,
                 GetResult::success(Tag{5, 100}, lost));
  // Without reconcile() the read returns a value no recorded write holds.
  EXPECT_FALSE(verify_history(rec.history()).atomicity.ok);
}

// ---- verify_history ----------------------------------------------------------

TEST(VerifyHistory, StaleReadFailsWithTheCheckersOwnText) {
  ClientRecorder rec;
  rec.record_put("k", make_op_id(1, 1), 1, 1.0, 2.0,
                 PutResult::success(Tag{1, 1}), Value::from_string("a"));
  // Invoked after the write completed, yet returns the initial value.
  rec.record_get("k", make_op_id(2, 1), 2, 3.0, 4.0,
                 GetResult::failure(Status::NotFound()));
  const core::History& h = rec.history();
  const HistoryVerdict v = verify_history(h);
  EXPECT_TRUE(v.liveness_ok());
  EXPECT_FALSE(v.ok());
  const auto atomicity = h.check_atomicity(Bytes{});
  const auto freshness = verify_read_freshness(h);
  ASSERT_FALSE(atomicity.ok);
  ASSERT_FALSE(freshness.ok);
  EXPECT_EQ(v.atomicity.violation, atomicity.violation);
  EXPECT_EQ(v.freshness.violation, freshness.violation);
  EXPECT_EQ(v.violation(), "atomicity: " + atomicity.violation);
}

TEST(VerifyHistory, CleanHistoryHasNoViolation) {
  ClientRecorder rec;
  rec.record_put("k", make_op_id(1, 1), 1, 1.0, 2.0,
                 PutResult::success(Tag{1, 1}), Value::from_string("a"));
  rec.record_get("k", make_op_id(2, 1), 2, 3.0, 4.0,
                 GetResult::success(Tag{1, 1}, Value::from_string("a")));
  const HistoryVerdict v = verify_history(rec.history());
  EXPECT_TRUE(v.ok());
  EXPECT_EQ(v.violation(), "");
}

// ---- concurrency (run under TSan in CI) --------------------------------------

TEST(ClientRecorder, ConcurrentRecordingFromManyThreads) {
  constexpr std::uint32_t kThreads = 4;
  constexpr std::uint32_t kOps = 200;
  ClientRecorder rec;
  std::vector<std::thread> threads;
  for (std::uint32_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&rec, t] {
      Rng rng(t + 1);
      const NodeId me = static_cast<NodeId>(100 + t);
      for (std::uint32_t i = 0; i < kOps; ++i) {
        const std::string key = "key-" + std::to_string(i % 8);
        const double now = static_cast<double>(i);
        if (i % 2 == 0) {
          rec.record_put(key, make_op_id(me, i), me, now, now,
                         PutResult::failure(Status::Unavailable()),
                         make_value(t, i, 8, rng));
        } else {
          rec.record_get(key, make_op_id(me, i), me, now, now,
                         GetResult::failure(Status::NotFound()));
        }
        if (i % 50 == 0) (void)rec.counts();
      }
    });
  }
  for (auto& t : threads) t.join();
  rec.reconcile();
  const ClientCounts c = rec.counts();
  EXPECT_EQ(c.writes_unknown, kThreads * kOps / 2);
  EXPECT_EQ(c.reads_completed, kThreads * kOps / 2);
  EXPECT_EQ(rec.history().ops().size(), kThreads * kOps);
}

// ---- ClientWorkers against a served store ------------------------------------

TEST(ClientWorkers, QuotaStopRuleRecordsEveryOpAndVerifies) {
  store::StoreOptions sopt;
  sopt.shards = 2;
  sopt.engine_mode = net::EngineMode::Parallel;
  sopt.engine_threads = 2;
  sopt.seed = 29;
  store::StoreService svc(sopt);
  ASSERT_TRUE(svc.listen(0).ok());
  Status st;
  auto session = store::RemoteSession::open("127.0.0.1", svc.listen_port(),
                                            &st);
  ASSERT_NE(session, nullptr) << st.to_string();

  ClientRecorder rec;
  std::atomic<std::uint32_t> seq{0};
  std::atomic<std::size_t> tickets{0};
  constexpr std::size_t kQuota = 120;
  {
    ClientWorkers workers(*session, rec, {3, 4, 32, 0.5}, 7, 0,
                          Clock::now(), seq, [&tickets] {
                            return tickets.fetch_add(1) < kQuota;
                          });
    workers.join();
    EXPECT_EQ(workers.ops_done(), kQuota);
  }
  const ClientCounts c = rec.counts();
  EXPECT_EQ(c.writes_completed + c.writes_coalesced + c.reads_completed,
            kQuota);
  EXPECT_EQ(c.failed(), 0u);
  const HistoryVerdict v = verify_history(rec.history());
  EXPECT_TRUE(v.ok()) << v.violation();
}

// ---- proc: parse_port / wait_for_port / Child --------------------------------

class PortFile : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("harness_lib_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
    path_ = (dir_ / "PORT").string();
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  void write(const std::string& body) {
    std::ofstream(path_, std::ios::binary | std::ios::trunc) << body;
  }

  std::filesystem::path dir_;
  std::string path_;
};

Bytes bytes_of(const std::string& s) { return Bytes(s.begin(), s.end()); }

TEST(ParsePort, AcceptsOnlyDigitsInRangeWithOptionalTrailingWhitespace) {
  EXPECT_EQ(parse_port(bytes_of("8080")), 8080);
  EXPECT_EQ(parse_port(bytes_of("8080\n")), 8080);
  EXPECT_EQ(parse_port(bytes_of("1")), 1);
  EXPECT_EQ(parse_port(bytes_of("65535")), 65535);
  EXPECT_EQ(parse_port(bytes_of("0")), std::nullopt);
  EXPECT_EQ(parse_port(bytes_of("65536")), std::nullopt);
  EXPECT_EQ(parse_port(bytes_of("99999999999999999999")), std::nullopt);
  EXPECT_EQ(parse_port(bytes_of("abc")), std::nullopt);
  EXPECT_EQ(parse_port(bytes_of("80x")), std::nullopt);
  EXPECT_EQ(parse_port(bytes_of("-80")), std::nullopt);
  EXPECT_EQ(parse_port(Bytes{}), std::nullopt);
}

TEST_F(PortFile, WaitForPortReadsAPortWithNoTrailingNewline) {
  Child child = spawn({"/bin/sleep", "30"});
  ASSERT_TRUE(child.running());
  write("8080");
  EXPECT_EQ(wait_for_port(path_, child, 10.0), 8080);
  EXPECT_TRUE(child.running());
}

TEST_F(PortFile, WaitForPortRejectsInvalidPorts) {
  Child child = spawn({"/bin/sleep", "30"});
  ASSERT_TRUE(child.running());
  for (const char* body : {"0", "65536", "abc"}) {
    SCOPED_TRACE(body);
    write(body);
    EXPECT_EQ(wait_for_port(path_, child, 0.1), std::nullopt);
  }
}

TEST_F(PortFile, WaitForPortReportsTheExitOfAChildThatNeverPublishes) {
  Child child = spawn({"/bin/true"});
  ASSERT_TRUE(child.running());
  const auto t0 = Clock::now();
  EXPECT_EQ(wait_for_port(path_, child, 30.0), std::nullopt);
  EXPECT_LT(seconds_since(t0), 10.0);  // noticed the exit, not the timeout
  EXPECT_FALSE(child.running());
  ASSERT_TRUE(child.exit_status().has_value());
  EXPECT_TRUE(WIFEXITED(*child.exit_status()));
  EXPECT_EQ(WEXITSTATUS(*child.exit_status()), 0);
  EXPECT_EQ(child.stop(SIGKILL), *child.exit_status());
}

TEST(Child, DroppedHandleKillsAndReapsItsProcess) {
  pid_t pid = -1;
  {
    Child child = spawn({"/bin/sleep", "30"});
    ASSERT_TRUE(child.running());
    pid = child.pid();
  }
  // Reaped: no zombie is left for this process to wait on.
  int status = 0;
  errno = 0;
  EXPECT_EQ(::waitpid(pid, &status, WNOHANG), -1);
  EXPECT_EQ(errno, ECHILD);
}

TEST(Child, StopReturnsTheWaitStatus) {
  Child child = spawn({"/bin/sleep", "30"});
  ASSERT_TRUE(child.running());
  const int status = child.stop(SIGTERM);
  EXPECT_TRUE(WIFSIGNALED(status));
  EXPECT_EQ(WTERMSIG(status), SIGTERM);
  EXPECT_FALSE(child.running());
  EXPECT_EQ(child.stop(SIGTERM), status);  // idempotent
}

TEST(Child, MoveAssignmentKillsTheProcessItReplaces) {
  Child a = spawn({"/bin/sleep", "30"});
  ASSERT_TRUE(a.running());
  const pid_t replaced = a.pid();
  a = spawn({"/bin/sleep", "30"});
  ASSERT_TRUE(a.running());
  EXPECT_NE(a.pid(), replaced);
  int status = 0;
  errno = 0;
  EXPECT_EQ(::waitpid(replaced, &status, WNOHANG), -1);
  EXPECT_EQ(errno, ECHILD);
}

TEST(Child, FailedExecExitsWith127) {
  Child child = spawn({"/nonexistent/binary"});
  ASSERT_TRUE(child.running());  // the fork itself succeeded
  const int status = child.stop(0);  // signal 0: just wait for the exit
  EXPECT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 127);
}

}  // namespace
}  // namespace lds::harness

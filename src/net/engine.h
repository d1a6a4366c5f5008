// Execution engines: the seam between the protocols and whatever drives them.
//
// The paper's model (Section II-a) is an asynchronous message-passing system;
// nothing in it requires ONE global clock.  An Engine owns a set of *lanes* —
// independent execution contexts, each with its own event queue, monotonic
// virtual clock and seed stream — and everything above the network layer
// (clusters, the store service, the harness) schedules onto a lane instead of
// onto a concrete Simulator.  Two implementations:
//
//   * SimEngine — one lane over a single discrete-event Simulator it owns
//     (clusters given the same engine share one time base).  This is the
//     deterministic mode: executions are bit-reproducible for a fixed seed,
//     exactly as before the engine abstraction existed.
//
//   * ParallelEngine — N lanes, each a worker OS thread free-running its own
//     Simulator.  Lanes share nothing; cross-lane communication happens only
//     through post(), so components that keep all their state on one lane
//     (e.g. one store shard) never contend.  Executions are not reproducible
//     (OS scheduling interleaves lanes), so correctness is established by the
//     linearizability checkers instead of by replay.
//
// Lane discipline: a lane's Simulator must only be touched from tasks running
// on that lane (or before start() / after drain(), when no worker runs).
// post() is the only thread-safe entry point; it runs the task inline when
// already on the target lane.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string_view>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "net/sim.h"

namespace lds::net {

/// How a multi-shard deployment executes: one deterministic simulator, or
/// one free-running event loop per shard group.
enum class EngineMode { Deterministic, Parallel };

const char* engine_mode_name(EngineMode m);
std::optional<EngineMode> parse_engine_mode(std::string_view name);

class Engine {
 public:
  using Task = std::function<void()>;

  virtual ~Engine() = default;

  virtual const char* name() const = 0;
  /// True when executions replay bit-identically for a fixed seed.
  virtual bool deterministic() const = 0;
  virtual std::size_t lanes() const = 0;

  /// The lane's event queue + virtual clock.  Subject to the lane
  /// discipline above.
  virtual Simulator& lane_sim(std::size_t lane) = 0;

  /// Derived seed stream for per-lane randomness: a pure function of the
  /// engine seed and the lane index, so a deployment's seeding is stable
  /// under Deterministic <-> Parallel switches.
  virtual std::uint64_t lane_seed(std::size_t lane) const = 0;

  /// Thread-safe: run `fn` on `lane` (inline when already on it, before the
  /// lane's next scheduled event otherwise).
  virtual void post(std::size_t lane, Task fn) = 0;

  /// The lane the calling thread is executing on, or nullopt when the caller
  /// is not a lane of this engine (external threads, other engines).  Lets
  /// compute fan-outs (codes::StripedCode's lane-parallel encode) post helper
  /// tasks to every lane EXCEPT their own, keeping post()'s inline-on-own-lane
  /// rule from serialising the fan-out.
  virtual std::optional<std::size_t> current_lane() const = 0;

  /// Schedule `fn` `delay` virtual time units from now on the *calling*
  /// lane.  Must be called from lane context (any call site is lane context
  /// under SimEngine).
  virtual void after_here(SimTime delay, Task fn) = 0;

  /// Foreground-activity gauge: while a lane's hold count is positive its
  /// worker free-runs; at zero, background-only event chains (heartbeat
  /// loops) advance at a bounded pace so virtual time cannot gallop
  /// unboundedly between client operations.  No-ops on SimEngine.
  virtual void hold(std::size_t lane) { (void)lane; }
  virtual void release(std::size_t lane) { (void)lane; }

  /// Start / stop the worker threads (no-ops on SimEngine).  Between
  /// construction and start() every lane is safely single-threaded, which is
  /// where deployments build their clusters and arm their timers.
  virtual void start() {}
  virtual void stop() {}

  /// Barrier: run until every lane's inbox and event queue are empty.  The
  /// caller must not submit concurrently.
  virtual void drain() = 0;

  /// Run until `settled()` holds.  `settled` is evaluated on the driving
  /// thread, so under a parallel engine it must read only thread-safe state.
  /// Returns false when the engine stalled (or timed out) first.
  virtual bool drain_until(const std::function<bool()>& settled) = 0;

  /// Total events executed across lanes.  Exact when quiescent; a lower
  /// bound while workers run.
  virtual std::uint64_t events_executed() const = 0;
};

/// Deterministic engine: one lane over one discrete-event Simulator.
class SimEngine final : public Engine {
 public:
  explicit SimEngine(std::uint64_t seed = 1) : seed_(seed) {}

  Simulator& sim() { return sim_; }

  const char* name() const override { return "sim"; }
  bool deterministic() const override { return true; }
  std::size_t lanes() const override { return 1; }
  Simulator& lane_sim(std::size_t lane) override;
  std::uint64_t lane_seed(std::size_t lane) const override;
  void post(std::size_t lane, Task fn) override;
  std::optional<std::size_t> current_lane() const override { return 0; }
  void after_here(SimTime delay, Task fn) override;
  void drain() override { sim_.run(); }
  bool drain_until(const std::function<bool()>& settled) override;
  std::uint64_t events_executed() const override {
    return sim_.events_executed();
  }

 private:
  Simulator sim_;
  std::uint64_t seed_ = 1;
};

/// Parallel engine: N worker event loops, one Simulator per lane.
class ParallelEngine final : public Engine {
 public:
  struct Options {
    /// Worker lanes; 0 = std::thread::hardware_concurrency() (min 1).
    std::size_t lanes = 0;
    std::uint64_t seed = 1;
    /// Events per scheduling quantum while foreground work is in flight
    /// (between quanta the worker re-checks its inbox).
    std::size_t chunk_events = 512;
    /// Virtual-time horizon a background-only lane may advance per ~1ms of
    /// wall time (bounds heartbeat-loop galloping while no client op is in
    /// flight).
    double background_horizon = 64.0;
  };

  ParallelEngine();  // default Options
  explicit ParallelEngine(Options opt);
  ~ParallelEngine() override;
  ParallelEngine(const ParallelEngine&) = delete;
  ParallelEngine& operator=(const ParallelEngine&) = delete;

  const char* name() const override { return "parallel"; }
  bool deterministic() const override { return false; }
  std::size_t lanes() const override { return lanes_.size(); }
  Simulator& lane_sim(std::size_t lane) override;
  std::uint64_t lane_seed(std::size_t lane) const override;
  void post(std::size_t lane, Task fn) override;
  std::optional<std::size_t> current_lane() const override;
  void after_here(SimTime delay, Task fn) override;
  void hold(std::size_t lane) override;
  void release(std::size_t lane) override;
  void start() override;
  void stop() override;
  void drain() override;
  bool drain_until(const std::function<bool()>& settled) override;
  std::uint64_t events_executed() const override;

 private:
  struct Lane {
    Simulator sim;
    std::mutex mu;
    std::condition_variable cv;
    std::vector<Task> inbox;  ///< guarded by mu
    std::atomic<std::int64_t> hold{0};
    std::atomic<bool> busy{false};
    /// sim.idle() published by the worker at every busy=false transition;
    /// only meaningful while busy is false (the worker is the sole sim
    /// mutator, and it re-raises busy under mu before touching sim again).
    std::atomic<bool> sim_idle{true};
    /// sim.events_executed() published after each quantum, so aggregate
    /// progress is readable without touching the lane's Simulator.
    std::atomic<std::uint64_t> events{0};
    std::thread worker;
  };

  void worker_loop(std::size_t lane);
  /// One locked pass over all lanes: true when none is executing and every
  /// inbox + event queue is empty.
  bool quiescent_pass();
  /// Quiescent with a stable cross-lane post count (nothing in flight).
  bool quiescent_stable();

  Options opt_;
  std::vector<std::unique_ptr<Lane>> lanes_;
  std::atomic<bool> stop_{false};
  bool started_ = false;
  std::atomic<std::uint64_t> posts_{0};
};

}  // namespace lds::net

// Child processes for the multi-process harnesses (kill-9, reconfig).
//
// spawn() forks and execs a binary with its stdout sent to /dev/null, and
// hands back a Child that owns the process: a Child that goes out of scope
// while its process still runs SIGKILLs and reaps it, so every early exit of
// a harness leaves no stray server and no zombie.  Stopping a Child
// explicitly (stop) returns the process's wait status.  wait_for_port polls
// the port file a child publishes once it listens.  POSIX only.
#pragma once

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/slice.h"

namespace lds::harness {

using Clock = std::chrono::steady_clock;

/// Wall-clock seconds elapsed since `t0`.
double seconds_since(Clock::time_point t0);

class Child {
 public:
  Child() = default;
  explicit Child(pid_t pid) : pid_(pid) {}
  Child(const Child&) = delete;
  Child& operator=(const Child&) = delete;
  Child(Child&& other) noexcept;
  /// Kills and reaps the process this handle owned before taking `other`'s.
  Child& operator=(Child&& other) noexcept;
  /// SIGKILLs and reaps a process that was never stopped.
  ~Child();

  pid_t pid() const { return pid_; }
  /// True while the process is spawned and not yet reaped.
  bool running() const { return pid_ > 0; }
  /// Reap without blocking: true once the process has exited (its wait
  /// status is then in exit_status() and the handle no longer runs).
  bool exited();
  /// Send `sig`, wait for the process to exit and return its wait status.
  /// A process that already exited returns the status it left; a handle
  /// that never ran returns -1.
  int stop(int sig);
  /// Wait status of the reaped process; nullopt while it runs.
  std::optional<int> exit_status() const { return status_; }

 private:
  pid_t pid_ = -1;
  std::optional<int> status_;
};

/// Flush stdio, fork, and execv `args[0]` with `args` in the child, whose
/// stdout goes to /dev/null (its stderr stays, so verification failures
/// show).  The returned handle does not run when fork fails.
Child spawn(const std::vector<std::string>& args);

/// A port number as published in a port file: leading decimal digits,
/// then nothing or whitespace, in 1..65535.  Reads only `bytes`.
std::optional<std::uint16_t> parse_port(const Bytes& bytes);

/// Poll for a child's (atomically published) port file.  Nullopt when the
/// child exits first (its status is then in child.exit_status()) or the
/// timeout lapses.
std::optional<std::uint16_t> wait_for_port(const std::string& port_file,
                                           Child& child, double timeout_s);

}  // namespace lds::harness

#include "harness/proc.h"

#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <charconv>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <thread>

#include "storage/fsutil.h"

namespace lds::harness {

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

Child::Child(Child&& other) noexcept
    : pid_(other.pid_), status_(other.status_) {
  other.pid_ = -1;
}

Child& Child::operator=(Child&& other) noexcept {
  if (this != &other) {
    if (running()) stop(SIGKILL);
    pid_ = other.pid_;
    status_ = other.status_;
    other.pid_ = -1;
  }
  return *this;
}

Child::~Child() {
  if (running()) stop(SIGKILL);
}

bool Child::exited() {
  if (!running()) return status_.has_value();
  int status = 0;
  if (::waitpid(pid_, &status, WNOHANG) != pid_) return false;
  status_ = status;
  pid_ = -1;
  return true;
}

int Child::stop(int sig) {
  if (running()) {
    int status = 0;
    ::kill(pid_, sig);
    ::waitpid(pid_, &status, 0);
    status_ = status;
    pid_ = -1;
  }
  return status_.value_or(-1);
}

Child spawn(const std::vector<std::string>& args) {
  std::vector<char*> argv;  // execv never writes through these
  for (const auto& a : args) argv.push_back(const_cast<char*>(a.c_str()));
  argv.push_back(nullptr);
  // Flush before fork: the child's freopen would otherwise re-emit any
  // buffered parent output into the shared stdout pipe.
  std::fflush(nullptr);
  const pid_t pid = ::fork();
  if (pid != 0) return Child(pid);  // parent (or fork failure, -1)
  // Child: quiet stdout so its banners do not interleave with the harness's
  // own output; stderr stays (verification failures must show).
  std::freopen("/dev/null", "w", stdout);
  ::execv(argv[0], argv.data());
  std::fprintf(stderr, "execv %s: %s\n", argv[0], std::strerror(errno));
  ::_exit(127);
}

std::optional<std::uint16_t> parse_port(const Bytes& bytes) {
  const char* first = reinterpret_cast<const char*>(bytes.data());
  const char* last = first + bytes.size();
  unsigned long port = 0;
  const auto [end, ec] = std::from_chars(first, last, port);
  if (ec != std::errc() || port == 0 || port > 65535) return std::nullopt;
  for (const char* p = end; p != last; ++p) {
    if (*p != '\n' && *p != '\r' && *p != ' ' && *p != '\t') {
      return std::nullopt;
    }
  }
  return static_cast<std::uint16_t>(port);
}

std::optional<std::uint16_t> wait_for_port(const std::string& port_file,
                                           Child& child, double timeout_s) {
  const auto t0 = Clock::now();
  while (seconds_since(t0) < timeout_s) {
    if (child.exited()) return std::nullopt;
    Bytes b;
    if (storage::read_file_bytes(port_file, &b).ok()) {
      if (const auto port = parse_port(b)) return port;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  return std::nullopt;
}

}  // namespace lds::harness

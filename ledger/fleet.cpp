#include "fleet.hpp"

#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <thread>

#include "ledger.hpp"
#include "net/client.hpp"

namespace ledger {

namespace {

// Live child pids, readable from a signal handler.
std::atomic<pid_t> g_children[8];

void track(pid_t pid) {
  for (auto& slot : g_children) {
    pid_t empty = 0;
    if (slot.compare_exchange_strong(empty, pid)) return;
  }
}

void untrack(pid_t pid) {
  for (auto& slot : g_children) {
    pid_t p = pid;
    if (slot.compare_exchange_strong(p, 0)) return;
  }
}

}  // namespace

void kill_children() {
  for (auto& slot : g_children) {
    const pid_t pid = slot.load();
    if (pid > 0) ::kill(pid, SIGKILL);
  }
}

Child::Child(const std::vector<std::string>& argv, std::string log_path)
    : log_path_(std::move(log_path)) {
  std::vector<char*> args;
  for (const std::string& a : argv) args.push_back(const_cast<char*>(a.c_str()));
  args.push_back(nullptr);
  const int fd = ::open(log_path_.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) return;
  const pid_t pid = ::fork();
  if (pid == 0) {
    ::dup2(fd, STDOUT_FILENO);
    ::dup2(fd, STDERR_FILENO);
    ::execv(args[0], args.data());
    std::_Exit(127);
  }
  ::close(fd);
  if (pid > 0) {
    pid_ = pid;
    track(pid);
  }
}

Child::~Child() {
  if (pid_ > 0) {
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, nullptr, 0);
    untrack(pid_);
  }
}

double Child::peak_rss_mb() const {
  if (pid_ <= 0) return 0.0;
  std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return static_cast<double>(std::strtoull(line.c_str() + 6, nullptr, 10)) /
             1024.0;  // kB
    }
  }
  return 0.0;
}

int Child::stop(double timeout_s) {
  if (pid_ <= 0) return -1;
  ::kill(pid_, SIGTERM);
  const double deadline = now_s() + timeout_s;
  int status = 0;
  while (true) {
    const pid_t r = ::waitpid(pid_, &status, WNOHANG);
    if (r == pid_) break;
    if (r < 0 || now_s() > deadline) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, nullptr, 0);
      untrack(pid_);
      pid_ = -1;
      return -1;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  untrack(pid_);
  pid_ = -1;
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

std::string Child::log() const {
  std::ifstream in(log_path_);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

bool wait_for_server(const std::string& address, double timeout_s,
                     std::string* error) {
  const double deadline = now_s() + timeout_s;
  while (true) {
    maia::net::Client probe;
    if (probe.connect(address, error) && probe.ping().ok()) return true;
    if (now_s() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

bool MetricsExport::load(const std::string& path) {
  std::ifstream in(path);
  if (!in) return false;
  std::stringstream ss;
  ss << in.rdbuf();
  text_ = ss.str();
  return !text_.empty();
}

std::uint64_t number_after(const std::string& text, const std::string& marker) {
  const std::size_t at = text.find(marker);
  if (at == std::string::npos) return 0;
  return std::strtoull(text.c_str() + at + marker.size(), nullptr, 10);
}

std::uint64_t MetricsExport::counter(const std::string& name) const {
  return number_after(text_, "\"" + name + "\": ");
}

double MetricsExport::histogram(const std::string& name,
                                const std::string& field) const {
  const std::size_t at = text_.find("\"" + name + "\": {");
  if (at == std::string::npos) return 0.0;
  const std::size_t f = text_.find("\"" + field + "\": ", at);
  const std::size_t end = text_.find('}', at);
  if (f == std::string::npos || f > end) return 0.0;
  return std::strtod(text_.c_str() + f + field.size() + 4, nullptr);
}

}  // namespace ledger

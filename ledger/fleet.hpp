// Program processes the wire workloads start (maia_serve, maia_router),
// and readers for what they export.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

namespace ledger {

/// One child process with stdout and stderr captured to `log_path`.  The
/// destructor kills and reaps a child still running, so no error path
/// leaves a process behind.
class Child {
 public:
  Child(const std::vector<std::string>& argv, std::string log_path);
  ~Child();
  Child(const Child&) = delete;
  Child& operator=(const Child&) = delete;

  bool started() const { return pid_ > 0; }
  /// Peak resident set so far (VmHWM), in MB; 0 once the child is reaped.
  double peak_rss_mb() const;
  /// SIGTERM (the servers drain gracefully), wait up to `timeout_s`, then
  /// SIGKILL.  Returns the exit status, or -1 when the child had to be
  /// killed or never started.
  int stop(double timeout_s = 30.0);
  /// Everything the child wrote so far.
  std::string log() const;

 private:
  pid_t pid_ = -1;
  std::string log_path_;
};

/// SIGKILL every child still running; async-signal-safe (the run's
/// time-limit alarm calls it).
void kill_children();

/// Poll until a server accepts connections at `address` (unix:PATH).
bool wait_for_server(const std::string& address, double timeout_s,
                     std::string* error);

/// A metrics registry JSON export (obs::write_metrics_json), read back by
/// name.  Missing names read as 0.
class MetricsExport {
 public:
  bool load(const std::string& path);
  std::uint64_t counter(const std::string& name) const;
  /// A histogram field: "p50", "p99", "total" or "sum".
  double histogram(const std::string& name, const std::string& field) const;

 private:
  std::string text_;
};

/// First unsigned integer after `marker` in `text`, or 0.
std::uint64_t number_after(const std::string& text, const std::string& marker);

}  // namespace ledger

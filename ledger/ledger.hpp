// The MAIA-Sim performance ledger: one benchmark binary that runs a named
// workload against the repository's libraries and servers, checks that
// every answer is correct, and reports end-to-end metrics (untraced runs)
// or per-layer metrics (traced runs) as one JSON line.
//
// Layers are measured from outside: by timing calls into each layer's
// public functions and by reading the counters and histograms the servers
// already export (STATS frames, --metrics at drain).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "checks.hpp"

namespace ledger {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string serve_bin;   ///< maia_serve executable
  std::string router_bin;  ///< maia_router executable
  std::string run_dir;     ///< per-run scratch: sockets, snapshots, exports
};

/// Seconds on the steady clock since the process entered main().
double since_start_s();
double now_s();

/// Operation latencies in log-spaced buckets 0.5% wide, from 0.1 us to
/// about 70 s.  Memory stays fixed however many samples a run takes (a
/// growing sample vector would move peak_rss_mb with the throughput).
/// Kept apart from obs::Histogram, whose buckets are a factor of 2 wide
/// and which records nothing in a build with the obs layer compiled out.
class LatencyHistogram {
 public:
  LatencyHistogram() : counts_(kBuckets, 0) {}
  void record(double us);
  void merge(const LatencyHistogram& other);
  /// q in [0, 1], interpolated geometrically inside the bucket; 0 when
  /// empty.
  double quantile(double q) const;
  std::uint64_t count() const { return count_; }

 private:
  static constexpr std::size_t kBuckets = 4096;
  std::vector<std::uint64_t> counts_;
  std::uint64_t count_ = 0;
};

/// Peak resident set of this process, in MB.
double self_peak_rss_mb();

int hardware_threads();

/// Pool size for in-process parallel work: the calling thread helps drain
/// the pool, so one worker fewer than hardware threads keeps every core
/// busy without oversubscribing it.
int pool_workers();

/// Write the in-process span trace (Chrome trace-event JSON) of a traced
/// run to <run_dir>/trace-<workload>.json.
void write_trace(const Options& opts);

/// Sample count behind the op_p50_us of an untraced run, on stderr (the
/// traced run reports it as op_samples, beside op_p99_us).
void note_samples(std::uint64_t samples, const char* op);

/// What one run prints: the correctness verdict, operation counts and the
/// metrics of the requested mode.
struct Report {
  Verdict verdict;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  std::vector<Metric> metrics;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  std::string json() const;
};

/// Engine cache and shard-lock counters over one phase, from EngineStats
/// deltas (in-process) or from servers' metrics exports.
struct EngineCounters {
  double queries = 0;
  double hits = 0;
  double evictions = 0;
  double batches = 0;
  double lock_acquisitions = 0;
  double hit_lock_acquisitions = 0;
  double lock_wait_ns = 0;
  double read_retries = 0;
  double promotions = 0;
};
void add_engine_metrics(const EngineCounters& c, Report& report);

/// Layer probes shared by every traced run (see probes.cpp): memsim
/// walks, per-kind model compute, engine miss/hit batches, protocol
/// codecs, CRC and snapshot load.
void add_probe_metrics(const Options& opts, Report& report);

Report run_figures(const Options& opts);
Report run_sweep_cold(const Options& opts);
Report run_wire(const Options& opts, bool routed);

/// Deliberately wrong inputs fed to every checker; returns 0 when each
/// one is caught.
int self_test();

}  // namespace ledger

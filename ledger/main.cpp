// maia_ledger: run one workload of the MAIA-Sim benchmark.
//
//   maia_ledger --workload NAME --seed N --seconds S --trace 0|1
//               --serve-bin PATH --router-bin PATH --run-dir DIR
//   maia_ledger --self-test
//
// Prints diagnostics on stderr and, as the last line of stdout, one JSON
// object: {"correct", "attempted", "failed", "metrics"}.  Untraced runs
// report the end-to-end metrics, traced runs the per-layer ones; a
// per-layer metric of a layer the workload leaves idle reads 0.
#include <signal.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <map>

#include "fleet.hpp"
#include "ledger.hpp"

namespace {

using ledger::Report;

struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"}, {"peak_rss_mb", "MB"}, {"qps", "1/s"}, {"op_p50_us", "us"},
};

constexpr MetricDef kPerLayer[] = {
    {"core.suite_s", "s"},
    {"core.suite_parallel_s", "s"},
    {"core.fig05_s", "s"},
    {"core.fig16_s", "s"},
    {"core.other_figures_s", "s"},
    {"sim.events_dispatched", "count"},
    {"memsim.laps_simulated", "count"},
    {"memsim.laps_extrapolated", "count"},
    {"memsim.walk_us.l1", "us"},
    {"memsim.walk_us.l2", "us"},
    {"memsim.walk_us.llc", "us"},
    {"memsim.walk_us.mem", "us"},
    {"svc.compute_ns.exec", "ns"},
    {"svc.compute_ns.collective", "ns"},
    {"svc.compute_ns.latency", "ns"},
    {"svc.miss_ns", "ns"},
    {"svc.hit_ns", "ns"},
    {"svc.hit_rate", "ratio"},
    {"svc.evictions_per_kquery", "count"},
    {"svc.lock_acquisitions_per_batch", "count"},
    {"svc.lock_wait_ns_per_query", "ns"},
    {"svc.read_retries_per_kquery", "count"},
    {"svc.promotions_per_kquery", "count"},
    {"svc.hit_lock_acquisitions", "count"},
    {"svc.snapshot_load_s", "s"},
    {"net.request_encode_ns", "ns"},
    {"net.request_decode_ns", "ns"},
    {"net.response_encode_ns", "ns"},
    {"net.response_decode_ns", "ns"},
    {"net.crc_ns_per_byte", "ns"},
    {"net.bytes_per_query", "B"},
    {"net.frames_per_evaluation", "count"},
    {"net.server.decode_us_p50", "us"},
    {"net.server.queue_wait_us_p50", "us"},
    {"net.server.queue_wait_us_p99", "us"},
    {"net.server.evaluate_us_p50", "us"},
    {"net.server.encode_us_p50", "us"},
    {"net.server.total_us_p50", "us"},
    {"net.client_side_us_p50", "us"},
    {"net.bufpool_allocations", "count"},
    {"net.retry_later", "count"},
    {"router.fanout_us_p50", "us"},
    {"router.fanout_us_p99", "us"},
    {"router.hop_us_p50", "us"},
    {"router.subbatches_per_frame", "count"},
    {"router.backend_share_max", "ratio"},
    {"router.resprayed", "count"},
    {"obs.trace_overhead", "ratio"},
    {"op_p99_us", "us"},
    {"op_samples", "count"},
};

/// Put the workload's metrics in table order, filling metrics of idle
/// layers with 0.  A name or unit outside the table is a benchmark bug.
template <std::size_t N>
bool normalize(Report& report, const MetricDef (&table)[N], bool fill_zero) {
  std::map<std::string, Report::Metric> seen;
  for (const Report::Metric& m : report.metrics) seen[m.name] = m;
  std::vector<Report::Metric> ordered;
  for (const MetricDef& d : table) {
    const auto it = seen.find(d.name);
    if (it == seen.end()) {
      if (!fill_zero) {
        std::fprintf(stderr, "ledger: metric %s was not measured\n", d.name);
        return false;
      }
      ordered.push_back({d.name, 0.0, d.unit});
      continue;
    }
    if (it->second.unit != d.unit) {
      std::fprintf(stderr, "ledger: metric %s reported in %s, expected %s\n", d.name,
                   it->second.unit.c_str(), d.unit);
      return false;
    }
    ordered.push_back(it->second);
    seen.erase(it);
  }
  for (const auto& [name, m] : seen) {
    std::fprintf(stderr, "ledger: metric %s is not in the table\n", name.c_str());
    return false;
  }
  report.metrics = std::move(ordered);
  return true;
}

// A run that hangs must still end: the alarm kills the program processes
// and exits without a result.  (A dropped response does not hang a run:
// frame reads have a deadline, see wire.hpp.)
void on_alarm(int) {
  ledger::kill_children();
  const char msg[] = "ledger: run exceeded its time limit\n";
  (void)!::write(STDERR_FILENO, msg, sizeof(msg) - 1);
  ::_exit(3);
}

int usage() {
  std::fprintf(stderr,
               "usage: maia_ledger --workload figures|sweep_cold|wire_hot|routed "
               "--seed N --seconds S --trace 0|1 --serve-bin PATH --router-bin PATH "
               "--run-dir DIR\n"
               "       maia_ledger --self-test\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  ledger::Options opts;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--self-test") return ledger::self_test();
    if (i + 1 >= argc) return usage();
    const std::string v = argv[++i];
    if (a == "--workload") {
      opts.workload = v;
    } else if (a == "--seed") {
      opts.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      opts.seconds = std::strtod(v.c_str(), nullptr);
    } else if (a == "--trace") {
      opts.trace = v == "1";
    } else if (a == "--serve-bin") {
      opts.serve_bin = v;
    } else if (a == "--router-bin") {
      opts.router_bin = v;
    } else if (a == "--run-dir") {
      opts.run_dir = v;
    } else {
      return usage();
    }
  }
  if (opts.run_dir.empty() || !(opts.seconds > 0)) return usage();

  signal(SIGALRM, on_alarm);
  alarm(170);

  Report report;
  if (opts.workload == "figures") {
    report = ledger::run_figures(opts);
  } else if (opts.workload == "sweep_cold") {
    report = ledger::run_sweep_cold(opts);
  } else if (opts.workload == "wire_hot" || opts.workload == "routed") {
    report = ledger::run_wire(opts, opts.workload == "routed");
  } else {
    return usage();
  }
  if (!report.verdict.correct() && report.metrics.empty()) {
    std::fprintf(stderr, "ledger: the %s workload could not run\n", opts.workload.c_str());
    return 1;
  }
  const bool ok = opts.trace ? normalize(report, kPerLayer, true)
                             : normalize(report, kEndToEnd, false);
  if (!ok) return 1;
  std::printf("%s\n", report.json().c_str());
  return 0;
}

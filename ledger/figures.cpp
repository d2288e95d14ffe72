// Workload `figures`: the paper reproduction's own cost.  Rounds of one
// serial pass and one parallel pass over all 25 figures and tables, with
// the walk memo cleared before every pass so each pass computes its walks
// instead of replaying the previous pass's.  The parallel pass runs
// nproc - 1 pool workers plus the calling thread, which helps: one thread
// per core.
#include <algorithm>

#include "ledger.hpp"
#include "memsim/latency_walker.hpp"
#include "obs/obs.hpp"

namespace ledger {

namespace {

using maia::core::SuiteResult;
using maia::core::SuiteRunner;

struct Phase {
  double serial_s = 0.0;
  double parallel_s = 0.0;
  std::uint64_t serial_passes = 0;
  std::uint64_t parallel_passes = 0;
  std::uint64_t figures = 0;
  LatencyHistogram figure_us;  // every figure of every pass
  // Serial-pass sums, for the per-layer breakdown.
  double fig05_s = 0.0;
  double fig16_s = 0.0;
  double other_s = 0.0;
  double events = 0.0;
  double laps_simulated = 0.0;
  double laps_extrapolated = 0.0;

  double seconds() const { return serial_s + parallel_s; }
  double figures_per_s() const { return static_cast<double>(figures) / seconds(); }
};

class FigureLoop {
 public:
  explicit FigureLoop(Report& report)
      : report_(report), serial_(1), parallel_(std::max(2, pool_workers())) {}

  /// One untimed cold serial pass; fixes the reference fingerprint that
  /// every later pass, serial or parallel, must reproduce.
  void warm_up() {
    maia::mem::clear_walk_memo();
    const SuiteResult first = serial_.run();
    report_.verdict.expect(suite_passes(first), "warm-up serial pass shape checks");
    reference_ = maia::core::fingerprint(first);
  }

  /// Whole rounds (serial + parallel pass) until `seconds` of pass time.
  void run(double seconds, Phase& ph) {
    while (ph.seconds() < seconds) {
      for (const SuiteRunner* runner : {&serial_, &parallel_}) {
        const bool serial = runner == &serial_;
        maia::mem::clear_walk_memo();
        const double t0 = now_s();
        SuiteResult r;
        {
          // Records only while the tracer is enabled (traced runs).
          maia::obs::ScopedSpan span("ledger", serial ? "serial_pass" : "parallel_pass");
          r = runner->run();
        }
        const double dt = now_s() - t0;
        (serial ? ph.serial_s : ph.parallel_s) += dt;
        ++(serial ? ph.serial_passes : ph.parallel_passes);
        ++report_.attempted;
        for (const maia::core::FigureRun& f : r.figures) {
          ph.figure_us.record(f.wall_seconds * 1e6);
          ++ph.figures;
          if (!serial) continue;
          if (f.result.id == "fig05") {
            ph.fig05_s += f.wall_seconds;
          } else if (f.result.id == "fig16") {
            ph.fig16_s += f.wall_seconds;
          } else {
            ph.other_s += f.wall_seconds;
          }
          ph.events += static_cast<double>(f.events_dispatched);
          ph.laps_simulated += static_cast<double>(f.walk_laps_simulated);
          ph.laps_extrapolated += static_cast<double>(f.walk_laps_extrapolated);
        }
        check(r, serial ? "serial pass" : "parallel pass");
      }
    }
  }

 private:
  void check(const SuiteResult& r, const char* what) {
    report_.verdict.expect(suite_passes(r), std::string(what) + " shape checks");
    report_.verdict.expect(maia::core::fingerprint(r) == reference_,
                           std::string(what) + " fingerprint differs from the first pass");
  }

  Report& report_;
  SuiteRunner serial_;
  SuiteRunner parallel_;
  std::string reference_;
};

}  // namespace

Report run_figures(const Options& opts) {
  Report report;
  FigureLoop loop(report);
  loop.warm_up();
  const double setup_s = since_start_s();

  if (!opts.trace) {
    Phase ph;
    loop.run(opts.seconds, ph);
    report.add("setup_s", setup_s, "s");
    report.add("peak_rss_mb", self_peak_rss_mb(), "MB");
    report.add("qps", ph.figures_per_s(), "1/s");
    report.add("op_p50_us", ph.figure_us.quantile(0.50), "us");
    note_samples(ph.figure_us.count(), "figure");
    return report;
  }

  Phase plain, traced;
  loop.run(opts.seconds / 2, plain);
  maia::obs::Tracer::global().set_enabled(true);
  loop.run(opts.seconds / 2, traced);
  maia::obs::Tracer::global().set_enabled(false);
  write_trace(opts);

  const auto passes = static_cast<double>(traced.serial_passes);
  report.add("core.suite_s", traced.serial_s / passes, "s");
  report.add("core.suite_parallel_s",
             traced.parallel_s / static_cast<double>(traced.parallel_passes), "s");
  report.add("core.fig05_s", traced.fig05_s / passes, "s");
  report.add("core.fig16_s", traced.fig16_s / passes, "s");
  report.add("core.other_figures_s", traced.other_s / passes, "s");
  report.add("sim.events_dispatched", traced.events / passes, "count");
  report.add("memsim.laps_simulated", traced.laps_simulated / passes, "count");
  report.add("memsim.laps_extrapolated", traced.laps_extrapolated / passes, "count");
  report.add("obs.trace_overhead", plain.figures_per_s() / traced.figures_per_s(),
             "ratio");
  report.add("op_p99_us", traced.figure_us.quantile(0.99), "us");
  report.add("op_samples", static_cast<double>(traced.figure_us.count()), "count");
  add_probe_metrics(opts, report);
  return report;
}

}  // namespace ledger

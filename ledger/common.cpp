#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

#include "ledger.hpp"
#include "obs/trace.hpp"

namespace ledger {

namespace {
const std::chrono::steady_clock::time_point g_start = std::chrono::steady_clock::now();
}  // namespace

double since_start_s() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - g_start)
      .count();
}

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {
constexpr double kMinUs = 0.1;
constexpr double kGrowth = 1.005;
}  // namespace

void LatencyHistogram::record(double us) {
  const double b = us > kMinUs ? std::log(us / kMinUs) / std::log(kGrowth) : 0.0;
  ++counts_[std::min(static_cast<std::size_t>(b), kBuckets - 1)];
  ++count_;
}

void LatencyHistogram::merge(const LatencyHistogram& other) {
  for (std::size_t i = 0; i < kBuckets; ++i) counts_[i] += other.counts_[i];
  count_ += other.count_;
}

double LatencyHistogram::quantile(double q) const {
  if (count_ == 0) return 0.0;
  const double target = q * static_cast<double>(count_);
  double below = 0.0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    const auto c = static_cast<double>(counts_[i]);
    if (c > 0 && below + c >= target) {
      const double frac = (target - below) / c;
      return kMinUs * std::pow(kGrowth, static_cast<double>(i) + frac);
    }
    below += c;
  }
  return kMinUs * std::pow(kGrowth, static_cast<double>(kBuckets));
}

double self_peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

int hardware_threads() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

int pool_workers() { return std::max(1, hardware_threads() - 1); }

void write_trace(const Options& opts) {
  std::ofstream os(opts.run_dir + "/trace-" + opts.workload + ".json");
  maia::obs::Tracer::global().write_chrome_json(os);
}

void note_samples(std::uint64_t samples, const char* op) {
  std::fprintf(stderr, "ledger: op_p50_us over %llu %s samples\n",
               static_cast<unsigned long long>(samples), op);
}

void add_engine_metrics(const EngineCounters& c, Report& report) {
  const double q = c.queries > 0 ? c.queries : 1.0;
  const double b = c.batches > 0 ? c.batches : 1.0;
  report.add("svc.hit_rate", c.hits / q, "ratio");
  report.add("svc.evictions_per_kquery", 1000.0 * c.evictions / q, "count");
  report.add("svc.lock_acquisitions_per_batch", c.lock_acquisitions / b, "count");
  report.add("svc.lock_wait_ns_per_query", c.lock_wait_ns / q, "ns");
  report.add("svc.read_retries_per_kquery", 1000.0 * c.read_retries / q, "count");
  report.add("svc.promotions_per_kquery", 1000.0 * c.promotions / q, "count");
  report.add("svc.hit_lock_acquisitions", c.hit_lock_acquisitions, "count");
}

void Verdict::expect(bool ok, const std::string& what) {
  if (ok) return;
  if (failures_ < 8) std::fprintf(stderr, "ledger: CHECK FAILED: %s\n", what.c_str());
  ++failures_;
}

std::string Report::json() const {
  std::ostringstream os;
  os << "{\"correct\": " << (verdict.correct() ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  char buf[64];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    double v = metrics[i].value;
    if (!std::isfinite(v)) {
      std::fprintf(stderr, "ledger: metric %s is not finite; printed as 0\n",
                   metrics[i].name.c_str());
      v = 0.0;
    }
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    os << (i ? ", " : "") << "\"" << metrics[i].name << "\": {\"value\": " << buf
       << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  os << "}}";
  return os.str();
}

}  // namespace ledger

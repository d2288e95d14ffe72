// Workload `sweep_cold`: in-process QueryEngine::evaluate over a seeded
// design-space stream.  Most queries are new (see stream.hpp), a quarter
// re-reference a small hot set, and the cache holds far fewer entries
// than a run's distinct keys, so model compute, miss fill and LRU
// inserts/evictions run beside lock-free hits.  The network is idle.
#include "arch/registry.hpp"
#include "ledger.hpp"
#include "obs/obs.hpp"
#include "sim/thread_pool.hpp"
#include "stream.hpp"
#include "svc/engine.hpp"
#include "sweep_grid.hpp"

namespace ledger {

namespace {

using maia::svc::BatchResults;
using maia::svc::EngineStats;
using maia::svc::Query;

constexpr std::size_t kBatch = 4096;
constexpr double kHotShare = 0.25;
constexpr std::size_t kHotKeys = 2048;
constexpr int kShards = 16;
constexpr std::size_t kCachePerShard = 4096;  // 65,536 entries in all
constexpr std::size_t kCheckChunk = 512;
constexpr int kBruteSamples = 8;
constexpr std::uint64_t kBruteEvery = 64;  // batches between brute samples

struct Phase {
  double eval_s = 0.0;
  std::uint64_t queries = 0;
  std::uint64_t batches = 0;
  LatencyHistogram batch_us;
  double qps() const { return static_cast<double>(queries) / eval_s; }
};

class SweepLoop {
 public:
  SweepLoop(std::uint64_t seed, Report& report)
      : report_(report),
        engine_(maia::arch::maia_node(), {kShards, kCachePerShard}),
        pool_(pool_workers()),
        stream_(seed),
        node_(maia::arch::maia_node()) {
    maia::sweepgrid::register_npb_kernels(engine_);
    hot_ = stream_.hot_set(kHotKeys);
    batch_.resize(kBatch);
  }

  /// Untimed batches until the cache is full, so the timed phase sees the
  /// steady state (every insert evicts).  Their answers are kept and
  /// checked by check_warm_up(), after set-up is timed.
  void warm_up() {
    while (engine_.stats().cache_misses < kShards * kCachePerShard) {
      next_batch();
      warm_batches_.push_back(batch_);
      warm_out_.emplace_back();
      engine_.evaluate(batch_, warm_out_.back(), &pool_);
      sent_ += batch_.size();
    }
  }

  void check_warm_up() {
    for (std::size_t b = 0; b < warm_batches_.size(); ++b) {
      batch_ = warm_batches_[b];
      out_ = warm_out_[b];
      check_batch();
    }
    warm_batches_.clear();
    warm_out_.clear();
  }

  void run(double seconds, Phase& ph) {
    while (ph.eval_s < seconds) {
      next_batch();
      const double t0 = now_s();
      {
        maia::obs::ScopedSpan span("ledger", "evaluate");
        engine_.evaluate(batch_, out_, &pool_);
      }
      const double dt = now_s() - t0;
      ph.eval_s += dt;
      ph.batch_us.record(dt * 1e6);
      ph.queries += batch_.size();
      ++ph.batches;
      sent_ += batch_.size();
      report_.attempted += batch_.size();
      check_batch();
    }
  }

  /// Cache accounting over everything evaluated since construction.
  void check_accounting() {
    check_cache_accounting(sent_, engine_.stats(), stream_.distinct_lower_bound(),
                           report_.verdict);
    report_.verdict.expect(brute_checked_ > 0, "no latency answer was brute-force checked");
  }

  EngineStats stats() const { return engine_.stats(); }

 private:
  void next_batch() {
    for (Query& q : batch_) {
      q = stream_.below(1000) < kHotShare * 1000 ? hot_[stream_.below(hot_.size())]
                                                  : stream_.fresh();
    }
  }

  /// Every answer of the batch against evaluate_serial (outside the timed
  /// phase, fanned over the pool), plus now and then one latency answer
  /// against the brute-force walk.
  void check_batch() {
    const std::size_t chunks = (batch_.size() + kCheckChunk - 1) / kCheckChunk;
    // Size the reference lanes here, so no pool thread allocates them (a
    // worker's first allocation opens a malloc arena, and which workers
    // did would move peak_rss_mb from run to run).
    if (reference_.size() < chunks) {
      reference_.resize(chunks);
      for (BatchResults& r : reference_) r.resize(kCheckChunk);
    }
    std::vector<char> ok(chunks, 0);
    maia::sim::parallel_for(&pool_, chunks, [&](std::size_t c) {
      const std::size_t lo = c * kCheckChunk;
      const std::size_t n = std::min(kCheckChunk, batch_.size() - lo);
      engine_.evaluate_serial(std::span<const Query>(batch_).subspan(lo, n),
                              reference_[c]);
      ok[c] = batch_slice_matches(out_, lo, reference_[c]);
    });
    for (std::size_t c = 0; c < chunks; ++c) {
      report_.verdict.expect(ok[c] != 0, "evaluate() differs from evaluate_serial() in batch " +
                                             std::to_string(batches_seen_) + " chunk " +
                                             std::to_string(c));
    }
    if (batches_seen_++ % kBruteEvery == 0 && brute_checked_ < kBruteSamples) {
      for (std::size_t i = 0; i < batch_.size(); ++i) {
        if (batch_[i].kind != maia::svc::QueryKind::kLatency) continue;
        const maia::svc::LatencyQuery& l = batch_[i].lat;
        const maia::mem::LatencyWalker walker(node_.device(l.device).processor);
        const maia::mem::WalkResult brute = walker.walk(
            l.working_set, l.iterations,
            maia::mem::WalkOptions{/*extrapolate=*/false, /*memoize=*/false,
                                   /*analytic=*/false});
        report_.verdict.expect(
            latency_matches_walk(out_.values()[i], out_.secondary()[i], brute),
            "latency answer differs from the brute-force walk at working set " +
                std::to_string(l.working_set));
        ++brute_checked_;
        break;
      }
    }
  }

  Report& report_;
  maia::svc::QueryEngine engine_;
  maia::sim::ThreadPool pool_;
  QueryStream stream_;
  maia::arch::NodeTopology node_;
  std::vector<Query> hot_;
  std::vector<Query> batch_;
  BatchResults out_;
  std::vector<BatchResults> reference_;
  std::vector<std::vector<Query>> warm_batches_;
  std::vector<BatchResults> warm_out_;
  std::uint64_t sent_ = 0;
  std::uint64_t batches_seen_ = 0;
  int brute_checked_ = 0;
};

double walk_laps(const char* which) {
  return static_cast<double>(
      maia::obs::MetricsRegistry::global().snapshot().counter(which));
}

}  // namespace

Report run_sweep_cold(const Options& opts) {
  Report report;
  SweepLoop loop(opts.seed, report);
  loop.warm_up();
  const double setup_s = since_start_s();
  loop.check_warm_up();

  if (!opts.trace) {
    Phase ph;
    loop.run(opts.seconds, ph);
    loop.check_accounting();
    report.add("setup_s", setup_s, "s");
    report.add("peak_rss_mb", self_peak_rss_mb(), "MB");
    report.add("qps", ph.qps(), "1/s");
    report.add("op_p50_us", ph.batch_us.quantile(0.50), "us");
    note_samples(ph.batch_us.count(), "batch");
    return report;
  }

  Phase plain, traced;
  loop.run(opts.seconds / 2, plain);
  const EngineStats before = loop.stats();
  const double sim0 = walk_laps("memsim.walk.laps_simulated");
  const double ext0 = walk_laps("memsim.walk.laps_extrapolated");
  maia::obs::Tracer::global().set_enabled(true);
  loop.run(opts.seconds / 2, traced);
  maia::obs::Tracer::global().set_enabled(false);
  const EngineStats after = loop.stats();
  loop.check_accounting();
  write_trace(opts);

  const auto batches = static_cast<double>(traced.batches);
  EngineCounters c;
  c.queries = static_cast<double>(after.queries - before.queries);
  c.hits = static_cast<double>(after.cache_hits - before.cache_hits);
  c.evictions = static_cast<double>(after.evictions - before.evictions);
  c.batches = batches;
  c.lock_acquisitions = static_cast<double>(after.lock_acquisitions - before.lock_acquisitions);
  c.hit_lock_acquisitions =
      static_cast<double>(after.hit_lock_acquisitions - before.hit_lock_acquisitions);
  c.lock_wait_ns = static_cast<double>(after.lock_wait_ns - before.lock_wait_ns);
  c.read_retries = static_cast<double>(after.read_retries - before.read_retries);
  c.promotions = static_cast<double>(after.promotions - before.promotions);
  add_engine_metrics(c, report);
  report.add("memsim.laps_simulated",
             (walk_laps("memsim.walk.laps_simulated") - sim0) / batches, "count");
  report.add("memsim.laps_extrapolated",
             (walk_laps("memsim.walk.laps_extrapolated") - ext0) / batches, "count");
  report.add("obs.trace_overhead", plain.qps() / traced.qps(), "ratio");
  report.add("op_p99_us", traced.batch_us.quantile(0.99), "us");
  report.add("op_samples", static_cast<double>(traced.batch_us.count()), "count");
  add_probe_metrics(opts, report);
  return report;
}

}  // namespace ledger

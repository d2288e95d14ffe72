// Layer probes of every traced run: each times calls into one layer's
// public functions in this process, on inputs of the workloads' shape.
#include <algorithm>

#include "arch/registry.hpp"
#include "ledger.hpp"
#include "net/protocol.hpp"
#include "sim/thread_pool.hpp"
#include "stream.hpp"
#include "svc/engine.hpp"
#include "svc/snapshot.hpp"
#include "sweep_grid.hpp"

namespace ledger {

namespace {

using maia::svc::BatchResults;
using maia::svc::Query;
using maia::svc::QueryKind;

constexpr double kProbeSeconds = 0.05;  // per timed loop

/// Mean seconds per call of `fn`, repeated for at least kProbeSeconds and
/// at least three calls.
template <typename Fn>
double seconds_per_call(Fn&& fn) {
  int calls = 0;
  const double t0 = now_s();
  double elapsed = 0.0;
  while (calls < 3 || elapsed < kProbeSeconds) {
    fn();
    ++calls;
    elapsed = now_s() - t0;
  }
  return elapsed / calls;
}


std::vector<Query> fresh_of_kind(QueryStream& stream, QueryKind kind, std::size_t n) {
  std::vector<Query> out;
  while (out.size() < n) {
    const Query q = stream.fresh();
    if (q.kind == kind) out.push_back(q);
  }
  return out;
}

void memsim_probes(Report& report) {
  const maia::arch::ProcessorModel& proc = maia::arch::maia_node().host.processor;
  const maia::mem::LatencyWalker walker(proc);
  maia::mem::WalkOptions opts;
  opts.memoize = false;
  const char* names[] = {"memsim.walk_us.l1", "memsim.walk_us.l2", "memsim.walk_us.llc"};
  for (std::size_t level = 0; level < 3; ++level) {
    const maia::sim::Bytes ws =
        level < proc.caches.size() ? proc.caches[level].capacity / 2 : 0;
    report.add(names[level],
               ws ? 1e6 * seconds_per_call([&] { walker.walk(ws, 4, opts); }) : 0.0, "us");
  }
  const maia::sim::Bytes mem_ws = 2 * proc.caches.back().capacity;
  report.add("memsim.walk_us.mem", 1e6 * seconds_per_call([&] { walker.walk(mem_ws, 4, opts); }),
             "us");
}

void svc_probes(const Options& opts, Report& report) {
  maia::svc::QueryEngine engine(maia::arch::maia_node(), {16, 4096});
  maia::sweepgrid::register_npb_kernels(engine);
  QueryStream stream(opts.seed);
  BatchResults out;

  const std::pair<QueryKind, const char*> kinds[] = {
      {QueryKind::kExec, "svc.compute_ns.exec"},
      {QueryKind::kCollective, "svc.compute_ns.collective"},
      {QueryKind::kLatency, "svc.compute_ns.latency"}};
  for (const auto& [kind, name] : kinds) {
    const std::vector<Query> batch =
        fresh_of_kind(stream, kind, kind == QueryKind::kLatency ? 64 : 8192);
    const double s = seconds_per_call([&] { engine.evaluate_serial(batch, out); });
    report.add(name, 1e9 * s / static_cast<double>(batch.size()), "ns");
  }

  // All-miss then all-hit evaluate() over fresh batches of the mix.
  maia::sim::ThreadPool pool(pool_workers());
  std::vector<Query> batch(4096);
  double miss_s = 0.0, hit_s = 0.0;
  std::size_t n = 0;
  for (int rep = 0; rep < 8; ++rep) {
    for (Query& q : batch) q = stream.fresh();
    double t0 = now_s();
    engine.evaluate(batch, out, &pool);
    miss_s += now_s() - t0;
    t0 = now_s();
    engine.evaluate(batch, out, &pool);
    hit_s += now_s() - t0;
    n += batch.size();
  }
  report.add("svc.miss_ns", 1e9 * miss_s / static_cast<double>(n), "ns");
  report.add("svc.hit_ns", 1e9 * hit_s / static_cast<double>(n), "ns");

  // Snapshot load: the routed workload's hot set, into a cold engine.
  const std::vector<Query> hot = stream.hot_set(32768);
  engine.evaluate(hot, out, &pool);
  const std::string path = opts.run_dir + "/probe.snap";
  engine.save_snapshot(path);
  maia::svc::QueryEngine cold(maia::arch::maia_node());
  maia::sweepgrid::register_npb_kernels(cold);
  const double t0 = now_s();
  const bool loaded = cold.load_snapshot(path).ok();
  report.add("svc.snapshot_load_s", now_s() - t0, "s");
  report.verdict.expect(loaded, "probe snapshot loads");
}

void net_probes(const Options& opts, Report& report) {
  const std::size_t frame = opts.workload == "routed" ? 1024 : 16;  // the wire workloads' frames
  QueryStream stream(opts.seed);
  std::vector<Query> queries(frame);
  for (Query& q : queries) q = stream.fresh();
  const auto per_query = [&](double s) { return 1e9 * s / static_cast<double>(frame); };

  std::vector<std::uint8_t> request;
  report.add("net.request_encode_ns", per_query(seconds_per_call([&] {
               maia::net::encode_batch_request_frame(1, 0, queries, request);
             })),
             "ns");
  const std::span<const std::uint8_t> req_payload =
      std::span<const std::uint8_t>(request).subspan(maia::net::kHeaderBytes);
  std::vector<Query> decoded;
  report.add("net.request_decode_ns", per_query(seconds_per_call([&] {
               maia::net::decode_batch_request(req_payload, decoded);
             })),
             "ns");

  maia::svc::QueryEngine engine(maia::arch::maia_node());
  maia::sweepgrid::register_npb_kernels(engine);
  BatchResults results;
  engine.evaluate_serial(queries, results);
  std::vector<std::uint8_t> response;
  report.add("net.response_encode_ns", per_query(seconds_per_call([&] {
               maia::net::encode_batch_response_frame(1, results.values(), results.secondary(),
                                                      results.flags(), response);
             })),
             "ns");
  const std::span<const std::uint8_t> resp_payload =
      std::span<const std::uint8_t>(response).subspan(maia::net::kHeaderBytes);
  std::size_t decoded_results = 0;
  report.add("net.response_decode_ns", per_query(seconds_per_call([&] {
               const auto r = maia::net::decode_batch_response(resp_payload);
               decoded_results = r ? r->size() : 0;
             })),
             "ns");
  report.verdict.expect(decoded_results == frame, "probe response decodes");
  report.verdict.expect(decoded.size() == frame, "probe request decodes");

  std::vector<std::uint8_t> block(1 << 20);
  for (std::size_t i = 0; i < block.size(); ++i) block[i] = static_cast<std::uint8_t>(i * 131);
  volatile std::uint32_t sink = 0;
  const double s = seconds_per_call([&] { sink = maia::svc::crc32(block.data(), block.size()); });
  report.add("net.crc_ns_per_byte", 1e9 * s / static_cast<double>(block.size()), "ns");
  (void)sink;
}

}  // namespace

void add_probe_metrics(const Options& opts, Report& report) {
  memsim_probes(report);
  svc_probes(opts, report);
  net_probes(opts, report);
}

}  // namespace ledger

// Workloads `wire_hot` and `routed`: the serving tier, driven as a closed
// loop from this process.  Each connection keeps a fixed window of
// frames in flight and sends the next one only when a response arrives,
// so the window stands for that many callers sharing the connection.
//
//   wire_hot: 16-query frames of already-cached queries to one maia_serve
//             (1 worker) over a unix socket: framing, CRC, coalescing, the
//             reactor and syscalls; the engine runs only its hit path.
//   routed:   1024-query frames through maia_router (1 worker) to two
//             `maia_serve --shard i/2` backends (1 worker each), warm-
//             started from partitioned snapshots: fan-out, merge and the
//             second hop.
//
// Both answer every frame from a snapshot the benchmark builds in set-up,
// and every response is compared byte for byte with evaluate_serial of
// the same queries, computed in this process apart from the servers.
#include "wire.hpp"

#include <errno.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <thread>

#include "arch/registry.hpp"
#include "fleet.hpp"
#include "net/client.hpp"
#include "net/transport.hpp"
#include "obs/obs.hpp"
#include "sim/thread_pool.hpp"
#include "stream.hpp"
#include "svc/engine.hpp"
#include "svc/snapshot.hpp"
#include "sweep_grid.hpp"

namespace ledger {

namespace {

using maia::net::Client;
using maia::net::WireStats;
using maia::svc::BatchResults;
using maia::svc::Query;

struct WireConfig {
  std::size_t hot_keys;  ///< distinct frames = hot_keys / frame
  std::size_t frame;     ///< queries per frame
  int connections;
  int window;            ///< frames in flight per connection
};

// wire_hot runs 2 connections against a reactor and 1 worker: four
// threads on four cores.  routed runs 1 connection with 2 frames in flight
// against the router's reactor and worker and each backend's: seven
// threads, but the router's one worker serves one frame at a time, so at
// most the two backends' workers and the router's reactor run at once.
constexpr WireConfig kWireHot{4096, 16, 2, 16};
constexpr WireConfig kRouted{32768, 1024, 1, 2};
constexpr const char* kServerWorkers = "1";  ///< per server process
// Warm-up is fixed work: every hot frame, twice, spread over the
// connections.
constexpr std::uint64_t kWarmUpPasses = 2;
constexpr std::size_t kReferenceChunk = 512;

/// The closed loop of one connection (see run_load).
void connection_loop(FrameConn& conn, const std::vector<Query>& hot, const BatchResults& want,
                     const LoadPlan& plan, std::size_t first, std::size_t stride,
                     double t0, double t_end, LoadResult& res) {
  auto& tracer = maia::obs::Tracer::global();
  const std::size_t nframes = hot.size() / plan.frame;
  struct Slot {
    std::uint64_t id = 0;
    std::size_t frame = 0;
    std::uint64_t t_send = 0;
  };
  std::vector<Slot> inflight;
  std::vector<std::uint8_t> buf;
  std::size_t cursor = first % nframes;
  std::uint64_t next_id = 1;

  auto more = [&]() {
    return (plan.frames_per_connection == 0 || res.frames_sent < plan.frames_per_connection) &&
           (plan.seconds <= 0.0 || now_s() < t_end);
  };
  auto send_next = [&]() {
    Slot s{next_id++, cursor, 0};
    cursor = (cursor + stride) % nframes;
    maia::net::encode_batch_request_frame(
        s.id, 0, std::span<const Query>(hot).subspan(s.frame * plan.frame, plan.frame), buf);
    s.t_send = tracer.now_ns();
    if (!conn.send(buf)) return false;
    inflight.push_back(s);
    ++res.frames_sent;
    return true;
  };

  for (int w = 0; w < plan.window && more(); ++w) {
    if (!send_next()) res.transport_ok = false;
  }
  while (!inflight.empty() && res.transport_ok) {
    std::optional<maia::net::Frame> frame = conn.read_frame(plan.read_timeout_ms);
    const std::uint64_t t_recv = tracer.now_ns();
    if (!frame) {
      res.transport_ok = false;
      break;
    }
    std::size_t k = 0;
    while (k < inflight.size() && inflight[k].id != frame->header.request_id) ++k;
    if (k == inflight.size()) {
      ++res.mismatches;  // a response nobody asked for
      continue;
    }
    const Slot s = inflight[k];
    inflight[k] = inflight.back();
    inflight.pop_back();
    if (frame->header.type == maia::net::FrameType::kBatchResponse) {
      const auto results = maia::net::decode_batch_response(frame->payload);
      if (results && results->size() == plan.frame &&
          wire_answers_match(*results, want, s.frame * plan.frame)) {
        ++res.frames_answered;
        res.queries += plan.frame;
        const auto window = static_cast<std::size_t>((now_s() - t0) / kRateWindowS);
        if (window < res.window_queries.size()) res.window_queries[window] += plan.frame;
        res.frame_us.record(static_cast<double>(t_recv - s.t_send) / 1000.0);
        if (tracer.enabled()) tracer.record("frame", "ledger", s.t_send, t_recv - s.t_send, "");
      } else {
        ++res.mismatches;
      }
    } else if (frame->header.type == maia::net::FrameType::kError) {
      ++res.frames_failed;
    } else {
      ++res.mismatches;
    }
    if (more() && !send_next()) res.transport_ok = false;
  }
}

/// Reference answers of `queries`: evaluate_serial, chunks fanned over
/// the pool.
BatchResults reference_answers(const maia::svc::QueryEngine& engine,
                               const std::vector<Query>& queries, maia::sim::ThreadPool& pool) {
  BatchResults want;
  want.resize(queries.size());
  const std::size_t chunks = (queries.size() + kReferenceChunk - 1) / kReferenceChunk;
  maia::sim::parallel_for(&pool, chunks, [&](std::size_t c) {
    const std::size_t lo = c * kReferenceChunk;
    const std::size_t n = std::min(kReferenceChunk, queries.size() - lo);
    BatchResults part;
    engine.evaluate_serial(std::span<const Query>(queries).subspan(lo, n), part);
    std::copy(part.values().begin(), part.values().end(), want.values_mut().begin() + lo);
    std::copy(part.secondary().begin(), part.secondary().end(),
              want.secondary_mut().begin() + lo);
    std::copy(part.flags().begin(), part.flags().end(), want.flags_mut().begin() + lo);
  });
  return want;
}

std::string sock(const Options& o, const std::string& name) {
  return "unix:" + o.run_dir + "/" + name + ".sock";
}

struct Counters {
  std::uint64_t served = 0;
  std::uint64_t engine_queries = 0;
};

Counters stats_of(Client& admin, Verdict& verdict, const char* who) {
  const std::optional<WireStats> s = admin.stats();
  verdict.expect(s.has_value(), std::string("STATS from ") + who);
  return s ? Counters{s->served, s->engine_queries} : Counters{};
}

/// Parse "bufpool N allocs" from a server's drain summary.
std::uint64_t bufpool_allocations(const std::string& log) {
  return number_after(log, "bufpool ");
}

}  // namespace

bool FrameConn::connect(const std::string& address, std::string* error) {
  close();
  maia::net::Address addr;
  if (!maia::net::parse_address(address, addr, error)) return false;
  const maia::net::TransportResult dialed = maia::net::dial(addr);
  if (!dialed.ok()) {
    if (error != nullptr) *error = dialed.message;
    return false;
  }
  fd_ = dialed.fd;
  timeout_ms_ = -1;
  parser_ = maia::net::FrameParser();
  return true;
}

void FrameConn::close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
}

bool FrameConn::send(std::span<const std::uint8_t> bytes) {
  std::size_t off = 0;
  while (fd_ >= 0 && off < bytes.size()) {
    const ssize_t rc = ::send(fd_, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
    if (rc < 0 && errno == EINTR) continue;
    if (rc < 0) return false;
    off += static_cast<std::size_t>(rc);
  }
  return fd_ >= 0;
}

std::optional<maia::net::Frame> FrameConn::read_frame(int timeout_ms) {
  if (fd_ < 0) return std::nullopt;
  if (timeout_ms != timeout_ms_) {
    const timeval tv{timeout_ms / 1000, (timeout_ms % 1000) * 1000};
    if (::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv)) != 0) return std::nullopt;
    timeout_ms_ = timeout_ms;
  }
  std::uint8_t buf[64 * 1024];
  for (;;) {
    maia::net::Frame frame;
    const maia::net::FrameParser::Status status = parser_.next(frame);
    if (status == maia::net::FrameParser::Status::kFrame) return frame;
    if (status != maia::net::FrameParser::Status::kNeedMore) return std::nullopt;
    const ssize_t n = ::read(fd_, buf, sizeof(buf));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return std::nullopt;  // hung up, or silent for timeout_ms (EAGAIN)
    parser_.feed({buf, static_cast<std::size_t>(n)});
  }
}

void LoadResult::merge(const LoadResult& o) {
  frames_sent += o.frames_sent;
  frames_answered += o.frames_answered;
  frames_failed += o.frames_failed;
  mismatches += o.mismatches;
  queries += o.queries;
  transport_ok = transport_ok && o.transport_ok;
  frame_us.merge(o.frame_us);
  if (window_queries.size() < o.window_queries.size()) {
    window_queries.resize(o.window_queries.size(), 0);
  }
  for (std::size_t w = 0; w < o.window_queries.size(); ++w) {
    window_queries[w] += o.window_queries[w];
  }
}

double LoadResult::qps() const {
  if (window_queries.empty()) return mean_qps();
  std::vector<std::uint64_t> sorted = window_queries;
  std::sort(sorted.begin(), sorted.end());
  const std::size_t n = sorted.size();
  const double mid = n % 2 ? static_cast<double>(sorted[n / 2])
                           : (static_cast<double>(sorted[n / 2 - 1]) +
                              static_cast<double>(sorted[n / 2])) / 2.0;
  return mid / kRateWindowS;
}

LoadResult run_load(std::span<FrameConn* const> conns, const std::vector<Query>& hot,
                    const BatchResults& want, const LoadPlan& plan) {
  std::vector<LoadResult> per(conns.size());
  const auto windows = static_cast<std::size_t>(plan.seconds / kRateWindowS);
  for (LoadResult& r : per) r.window_queries.assign(windows, 0);
  const double t0 = now_s();
  const double t_end = t0 + plan.seconds;
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < conns.size(); ++t) {
    threads.emplace_back([&, t] {
      connection_loop(*conns[t], hot, want, plan, t, conns.size(), t0, t_end, per[t]);
    });
  }
  for (std::thread& th : threads) th.join();
  LoadResult all;
  for (const LoadResult& r : per) all.merge(r);
  all.seconds = now_s() - t0;
  return all;
}

void check_phase(const LoadResult& r, std::uint64_t front_served_delta,
                 std::uint64_t engine_query_delta, Verdict& verdict) {
  verdict.expect(r.transport_ok, "connections stayed up and every read met its deadline");
  verdict.expect(r.mismatches == 0,
                 std::to_string(r.mismatches) +
                     " responses differ from evaluate_serial or were not asked for");
  verdict.expect(r.frames_sent == r.frames_answered + r.frames_failed,
                 "every frame sent got a response (sent " + std::to_string(r.frames_sent) +
                     ", answered " + std::to_string(r.frames_answered) + ", refused " +
                     std::to_string(r.frames_failed) + ")");
  verdict.expect(r.frames_answered == front_served_delta,
                 "frames answered (" + std::to_string(r.frames_answered) +
                     ") = front net.requests.served delta (" +
                     std::to_string(front_served_delta) + ")");
  verdict.expect(r.queries == engine_query_delta,
                 "queries answered (" + std::to_string(r.queries) +
                     ") = backends' engine query delta (" + std::to_string(engine_query_delta) +
                     ")");
}

Report run_wire(const Options& opts, bool routed) {
  Report report;
  const WireConfig& cfg = routed ? kRouted : kWireHot;

  // Inputs, the reference answers, and the warm-start snapshot(s).
  maia::svc::QueryEngine engine(maia::arch::maia_node());
  maia::sweepgrid::register_npb_kernels(engine);
  QueryStream stream(opts.seed);
  const std::vector<Query> hot = stream.hot_set(cfg.hot_keys);
  BatchResults want;
  {
    maia::sim::ThreadPool pool(pool_workers());
    want = reference_answers(engine, hot, pool);
    BatchResults warm;
    engine.evaluate(hot, warm, &pool);
  }
  const std::string snap = opts.run_dir + "/hot.snap";
  report.verdict.expect(engine.save_snapshot(snap).ok(), "saving the warm-start snapshot");
  std::vector<std::string> shard_snaps;
  if (routed) {
    shard_snaps = {snap + ".0", snap + ".1"};
    report.verdict.expect(maia::svc::partition_snapshot(snap, shard_snaps).ok(),
                          "partitioning the warm-start snapshot");
  }

  // The fleet.
  std::vector<std::unique_ptr<Child>> backends;
  std::vector<std::string> backend_addrs;
  for (int i = 0; i < (routed ? 2 : 1); ++i) {
    const std::string name = routed ? "backend" + std::to_string(i) : "serve";
    backend_addrs.push_back(sock(opts, name));
    std::vector<std::string> argv = {opts.serve_bin, "--socket", backend_addrs.back(),
                                     "--workers", kServerWorkers, "--snapshot-in",
                                     routed ? shard_snaps[i] : snap, "--metrics",
                                     opts.run_dir + "/" + name + "-metrics.json"};
    if (routed) {
      argv.push_back("--shard");
      argv.push_back(std::to_string(i) + "/2");
    }
    backends.push_back(std::make_unique<Child>(argv, opts.run_dir + "/" + name + ".log"));
  }
  std::string error;
  for (const std::string& a : backend_addrs) {
    report.verdict.expect(wait_for_server(a, 60.0, &error), "server at " + a + ": " + error);
  }
  std::unique_ptr<Child> router;
  std::string front = backend_addrs.front();
  if (routed) {
    front = sock(opts, "router");
    router = std::make_unique<Child>(
        std::vector<std::string>{opts.router_bin, "--socket", front, "--backend",
                                 backend_addrs[0], "--backend", backend_addrs[1],
                                 "--workers", kServerWorkers, "--metrics",
                                 opts.run_dir + "/router-metrics.json"},
        opts.run_dir + "/router.log");
    report.verdict.expect(wait_for_server(front, 60.0, &error), "router: " + error);
  }
  if (!report.verdict.correct()) return report;

  Client front_admin;
  std::vector<std::unique_ptr<Client>> backend_admin;
  std::vector<std::unique_ptr<FrameConn>> clients;
  std::vector<FrameConn*> conns;
  report.verdict.expect(front_admin.connect(front, &error), "admin connection: " + error);
  for (const std::string& a : backend_addrs) {
    backend_admin.push_back(std::make_unique<Client>());
    report.verdict.expect(backend_admin.back()->connect(a, &error), "backend admin: " + error);
  }
  for (int c = 0; c < cfg.connections; ++c) {
    clients.push_back(std::make_unique<FrameConn>());
    conns.push_back(clients.back().get());
    report.verdict.expect(clients.back()->connect(front, &error), "client connection: " + error);
  }
  if (!report.verdict.correct()) return report;

  std::uint64_t life_queries = 0;  // everything the front ever answered
  auto phase = [&](LoadPlan plan, bool counted) {
    plan.frame = cfg.frame;
    plan.window = cfg.window;
    const Counters f0 = stats_of(front_admin, report.verdict, "front");
    std::vector<Counters> b0;
    for (auto& b : backend_admin) b0.push_back(stats_of(*b, report.verdict, "backend"));
    LoadResult r = run_load(conns, hot, want, plan);
    const Counters f1 = stats_of(front_admin, report.verdict, "front");
    std::uint64_t engine_delta = 0;
    std::vector<Counters> bd;
    for (std::size_t i = 0; i < backend_admin.size(); ++i) {
      const Counters b1 = stats_of(*backend_admin[i], report.verdict, "backend");
      bd.push_back({b1.served - b0[i].served, b1.engine_queries - b0[i].engine_queries});
      engine_delta += bd.back().engine_queries;
    }
    check_phase(r, f1.served - f0.served, engine_delta, report.verdict);
    if (counted) {
      report.attempted += r.frames_sent;
      report.failed += r.frames_failed;
    }
    life_queries += r.queries;
    return std::make_pair(std::move(r), std::move(bd));
  };

  LoadPlan warm_up;
  warm_up.frames_per_connection =
      kWarmUpPasses * (cfg.hot_keys / cfg.frame) / static_cast<std::uint64_t>(cfg.connections);
  phase(warm_up, false);
  const double setup_s = since_start_s();

  LoadResult main_load, plain;
  std::vector<Counters> backend_delta;
  LoadPlan timed;
  timed.seconds = opts.trace ? opts.seconds / 2 : opts.seconds;
  if (!opts.trace) {
    main_load = phase(timed, true).first;
  } else {
    plain = phase(timed, true).first;
    maia::obs::Tracer::global().set_enabled(true);
    auto traced = phase(timed, true);
    maia::obs::Tracer::global().set_enabled(false);
    main_load = std::move(traced.first);
    backend_delta = std::move(traced.second);
    write_trace(opts);
  }

  // Tear down: peak memory first, then drain (router before backends) so
  // every process writes its metrics export.
  double rss = self_peak_rss_mb();
  if (router) rss += router->peak_rss_mb();
  for (auto& b : backends) rss += b->peak_rss_mb();
  front_admin.close();
  for (auto& c : clients) c->close();
  for (auto& b : backend_admin) b->close();
  if (router) report.verdict.expect(router->stop() == 0, "router drained cleanly");
  for (auto& b : backends) report.verdict.expect(b->stop() == 0, "server drained cleanly");

  std::vector<MetricsExport> backend_metrics(backends.size());
  std::uint64_t wrong_shard = 0;
  for (std::size_t i = 0; i < backends.size(); ++i) {
    const std::string name = routed ? "backend" + std::to_string(i) : "serve";
    report.verdict.expect(backend_metrics[i].load(opts.run_dir + "/" + name + "-metrics.json"),
                          "metrics export of " + name);
    report.verdict.expect(backends[i]->log().find("warmed ") != std::string::npos,
                          name + " warm-started from its snapshot");
    wrong_shard += backend_metrics[i].counter("net.requests.wrong_shard");
  }
  report.verdict.expect(wrong_shard == 0, "wrong_shard = 0");

  if (!opts.trace) {
    report.add("setup_s", setup_s, "s");
    report.add("peak_rss_mb", rss, "MB");
    report.add("qps", main_load.qps(), "1/s");
    report.add("op_p50_us", main_load.frame_us.quantile(0.50), "us");
    note_samples(main_load.frame_us.count(), "frame");
    std::fprintf(stderr, "ledger: qps is the median of %zu windows of %g s; the run's mean is %.6g\n",
                 main_load.window_queries.size(), kRateWindowS, main_load.mean_qps());
    return report;
  }

  // Per-layer: the front server's stage histograms and counters.
  MetricsExport front_metrics;
  if (routed) {
    report.verdict.expect(front_metrics.load(opts.run_dir + "/router-metrics.json"),
                          "router metrics export");
  } else {
    front_metrics = backend_metrics[0];
  }
  const double frame_p50 = main_load.frame_us.quantile(0.50);
  auto stage_us = [&](const MetricsExport& m, const char* stage, const char* q) {
    return m.histogram(std::string("net.request.") + stage + "_ns", q) / 1000.0;
  };
  const double server_total_p50 = stage_us(front_metrics, "total", "p50");
  const double bytes = static_cast<double>(front_metrics.counter("net.bytes.read") +
                                           front_metrics.counter("net.bytes.written"));
  report.add("net.bytes_per_query", bytes / static_cast<double>(life_queries), "B");
  report.add("net.frames_per_evaluation",
             front_metrics.histogram("net.coalesce.requests", "sum") /
                 std::max(1.0, front_metrics.histogram("net.coalesce.requests", "total")),
             "count");
  report.add("net.server.decode_us_p50", stage_us(front_metrics, "decode", "p50"), "us");
  report.add("net.server.queue_wait_us_p50", stage_us(front_metrics, "queue_wait", "p50"), "us");
  report.add("net.server.queue_wait_us_p99", stage_us(front_metrics, "queue_wait", "p99"), "us");
  report.add("net.server.evaluate_us_p50", stage_us(front_metrics, "evaluate", "p50"), "us");
  report.add("net.server.encode_us_p50", stage_us(front_metrics, "encode", "p50"), "us");
  report.add("net.server.total_us_p50", server_total_p50, "us");
  report.add("net.client_side_us_p50", frame_p50 - server_total_p50, "us");
  // maia_router prints no bufpool summary; count the maia_serve processes'.
  std::uint64_t pool_allocs = 0;
  for (const auto& b : backends) pool_allocs += bufpool_allocations(b->log());
  report.add("net.bufpool_allocations", static_cast<double>(pool_allocs), "count");
  report.add("net.retry_later",
             static_cast<double>(front_metrics.counter("net.requests.rejected")), "count");

  EngineCounters c;
  for (const MetricsExport& m : backend_metrics) {
    c.queries += static_cast<double>(m.counter("svc.queries"));
    c.hits += static_cast<double>(m.counter("svc.cache.hits"));
    c.batches += static_cast<double>(m.counter("svc.batches"));
    c.lock_acquisitions += static_cast<double>(m.counter("svc.shard.lock_acquisitions"));
    c.hit_lock_acquisitions +=
        static_cast<double>(m.counter("svc.shard.hit_lock_acquisitions"));
    c.lock_wait_ns += m.histogram("svc.shard.lock_wait_ns", "sum");
    c.read_retries += static_cast<double>(m.counter("svc.shard.read_retries_total"));
    c.promotions += static_cast<double>(m.counter("svc.shard.promotions"));
  }
  add_engine_metrics(c, report);

  if (routed) {
    double backend_total_p50 = 0.0, sub_batches = 0.0, share_max = 0.0, all = 0.0;
    for (std::size_t i = 0; i < backend_metrics.size(); ++i) {
      backend_total_p50 += stage_us(backend_metrics[i], "total", "p50") /
                           static_cast<double>(backend_metrics.size());
      sub_batches += static_cast<double>(backend_delta[i].served);
      all += static_cast<double>(backend_delta[i].engine_queries);
      share_max = std::max(share_max, static_cast<double>(backend_delta[i].engine_queries));
    }
    report.add("router.fanout_us_p50",
               front_metrics.histogram("net.router.fanout_ns", "p50") / 1000.0, "us");
    report.add("router.fanout_us_p99",
               front_metrics.histogram("net.router.fanout_ns", "p99") / 1000.0, "us");
    report.add("router.hop_us_p50", frame_p50 - backend_total_p50, "us");
    report.add("router.subbatches_per_frame",
               sub_batches / static_cast<double>(main_load.frames_answered), "count");
    report.add("router.backend_share_max", all > 0 ? share_max / all : 0.0, "ratio");
    report.add("router.resprayed",
               static_cast<double>(front_metrics.counter("net.router.resprayed")), "count");
  }
  report.add("obs.trace_overhead", plain.qps() / main_load.qps(), "ratio");
  report.add("op_p99_us", main_load.frame_us.quantile(0.99), "us");
  report.add("op_samples", static_cast<double>(main_load.frame_us.count()), "count");
  add_probe_metrics(opts, report);
  return report;
}

}  // namespace ledger

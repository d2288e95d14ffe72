// Self-test of the benchmark's checks: every check gets one correct input,
// which it must accept, and one deliberately wrong input, which must make
// the run's report print "correct": false.
//
// The wire cases drive the wire workloads' own closed loop and per-phase
// checks (wire.hpp) against an in-process stand-in for maia_serve on the
// other end of a socket pair.  It answers every request with
// evaluate_serial of its queries, except the one response it is told to
// drop or to corrupt.
#include <sys/socket.h>
#include <unistd.h>

#include <cstdio>
#include <thread>

#include "arch/registry.hpp"
#include "core/figures.hpp"
#include "ledger.hpp"
#include "stream.hpp"
#include "svc/engine.hpp"
#include "sweep_grid.hpp"
#include "wire.hpp"

namespace ledger {

namespace {

using maia::svc::BatchResults;
using maia::svc::Query;

void flip_bit(double& d, int bit) {
  std::uint64_t u;
  std::memcpy(&u, &d, sizeof(u));
  u ^= 1ull << bit;
  std::memcpy(&d, &u, sizeof(u));
}

/// What a run whose checks wrote into `verdict` prints.
bool report_says_incorrect(const Verdict& verdict) {
  Report report;
  report.verdict = verdict;
  report.attempted = 1;
  return report.json().find("\"correct\": false") != std::string::npos;
}

struct Tally {
  int caught = 0;
  int missed = 0;
  void expect(const char* name, const Verdict& good, const Verdict& bad) {
    const bool rejects_bad = report_says_incorrect(bad);
    const bool ok = good.correct() && rejects_bad;
    std::printf("selftest: %-48s %s\n", name,
                ok ? "caught" : (good.correct() ? "MISSED" : "REJECTS GOOD INPUT"));
    (ok ? caught : missed) += 1;
  }
};

Verdict verdict_of(bool ok, const std::string& what) {
  Verdict v;
  v.expect(ok, what);
  return v;
}

enum class Fault { kNone, kDrop, kFlipBit };

/// A stand-in for maia_serve: answers batch requests until the client
/// hangs up, counting what it served as the real server's STATS would.
class FakeServer {
 public:
  FakeServer(const maia::svc::QueryEngine& engine, Fault fault, std::uint64_t fault_id)
      : engine_(engine), fault_(fault), fault_id_(fault_id) {
    int fds[2] = {-1, -1};
    if (::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, fds) == 0) {
      client_fd_ = fds[0];
      server_fd_ = fds[1];
      thread_ = std::thread([this] { serve(); });
    }
  }
  ~FakeServer() {
    if (thread_.joinable()) thread_.join();
    if (server_fd_ >= 0) ::close(server_fd_);
  }

  /// The client end; ownership passes to the caller's FrameConn.
  int client_fd() const { return client_fd_; }
  /// Waits until the client has hung up.
  void join() {
    if (thread_.joinable()) thread_.join();
  }
  std::uint64_t served() const { return served_; }
  std::uint64_t queries() const { return queries_; }

 private:
  void serve() {
    maia::net::FrameParser parser;
    std::uint8_t buf[64 * 1024];
    std::vector<Query> queries;
    BatchResults results;
    std::vector<std::uint8_t> out;
    for (;;) {
      const ssize_t n = ::read(server_fd_, buf, sizeof(buf));
      if (n <= 0) return;
      parser.feed({buf, static_cast<std::size_t>(n)});
      maia::net::Frame frame;
      while (parser.next(frame) == maia::net::FrameParser::Status::kFrame) {
        if (maia::net::decode_batch_request(frame.payload, queries) != maia::net::WireError::kOk) {
          return;
        }
        const std::uint64_t id = frame.header.request_id;
        queries_ += queries.size();
        if (fault_ == Fault::kDrop && id == fault_id_) continue;
        engine_.evaluate_serial(queries, results);
        if (fault_ == Fault::kFlipBit && id == fault_id_) flip_bit(results.values_mut()[3], 0);
        maia::net::encode_batch_response_frame(id, results.values(), results.secondary(),
                                               results.flags(), out);
        if (::send(server_fd_, out.data(), out.size(), MSG_NOSIGNAL) !=
            static_cast<ssize_t>(out.size())) {
          return;
        }
        ++served_;
      }
    }
  }

  const maia::svc::QueryEngine& engine_;
  Fault fault_;
  std::uint64_t fault_id_;
  int client_fd_ = -1;
  int server_fd_ = -1;
  std::thread thread_;
  std::uint64_t served_ = 0;
  std::uint64_t queries_ = 0;
};

struct WireCase {
  LoadResult load;
  std::uint64_t served = 0;
  std::uint64_t queries = 0;
};

/// 32 frames of 16 queries, 4 in flight, against a FakeServer.
WireCase drive(const maia::svc::QueryEngine& engine, const std::vector<Query>& hot,
               const BatchResults& want, Fault fault) {
  FakeServer server(engine, fault, /*fault_id=*/5);
  WireCase c;
  {
    FrameConn conn(server.client_fd());
    FrameConn* conns[] = {&conn};
    LoadPlan plan;
    plan.frame = 16;
    plan.window = 4;
    plan.frames_per_connection = 32;
    plan.read_timeout_ms = 300;
    c.load = run_load(conns, hot, want, plan);
  }  // hangs up, so the server returns
  server.join();
  c.served = server.served();
  c.queries = server.queries();
  return c;
}

Verdict phase_verdict(const LoadResult& load, std::uint64_t served, std::uint64_t queries) {
  Verdict v;
  check_phase(load, served, queries, v);
  return v;
}

}  // namespace

int self_test() {
  Tally t;
  maia::svc::QueryEngine engine(maia::arch::maia_node());
  maia::sweepgrid::register_npb_kernels(engine);
  QueryStream stream(7);

  // The wire loop and its per-phase checks, against a misbehaving server.
  const std::vector<Query> hot = stream.hot_set(256);
  BatchResults want;
  engine.evaluate_serial(hot, want);
  const WireCase good = drive(engine, hot, want, Fault::kNone);
  const Verdict good_phase = phase_verdict(good.load, good.served, good.queries);
  const WireCase flipped = drive(engine, hot, want, Fault::kFlipBit);
  t.expect("flipped bit in one wire answer", good_phase,
           phase_verdict(flipped.load, flipped.served, flipped.queries));
  const WireCase dropped = drive(engine, hot, want, Fault::kDrop);
  t.expect("one dropped response (read deadline)", good_phase,
           phase_verdict(dropped.load, dropped.served, dropped.queries));
  t.expect("front served count one above the client's", good_phase,
           phase_verdict(good.load, good.served + 1, good.queries));
  t.expect("backends' engine query count disagrees", good_phase,
           phase_verdict(good.load, good.served, good.queries - 16));

  // One flipped bit in one engine answer (sweep_cold's batch check).
  std::vector<Query> queries;
  while (queries.size() < 64) queries.push_back(stream.fresh());
  BatchResults reference;
  engine.evaluate_serial(queries, reference);
  BatchResults got;
  engine.evaluate(queries, got);
  const Verdict batch_good =
      verdict_of(batch_slice_matches(got, 0, reference), "engine batch matches");
  flip_bit(got.secondary_mut()[40], 51);
  t.expect("flipped bit in one engine answer", batch_good,
           verdict_of(batch_slice_matches(got, 0, reference), "engine batch matches"));

  // A latency answer against the brute-force walk.
  maia::svc::LatencyQuery lq;
  lq.working_set = 48 << 10;
  const Query lat = Query::of(lq);
  BatchResults lat_out;
  engine.evaluate_serial(std::span<const Query>(&lat, 1), lat_out);
  const maia::mem::LatencyWalker walker(maia::arch::maia_node().host.processor);
  maia::mem::WalkResult brute =
      walker.walk(lq.working_set, lq.iterations, maia::mem::WalkOptions{false, false, false});
  const Verdict walk_good = verdict_of(
      latency_matches_walk(lat_out.values()[0], lat_out.secondary()[0], brute), "walk matches");
  flip_bit(brute.avg_latency, 3);
  t.expect("flipped bit in the brute-force walk", walk_good,
           verdict_of(latency_matches_walk(lat_out.values()[0], lat_out.secondary()[0], brute),
                      "walk matches"));

  // Cache accounting of the engine that evaluated the batch above (a
  // fresh engine, so its counters cover exactly that batch).
  maia::svc::QueryEngine counted(maia::arch::maia_node());
  maia::sweepgrid::register_npb_kernels(counted);
  counted.evaluate(queries, got);
  const maia::svc::EngineStats stats = counted.stats();
  Verdict accounting_good;
  check_cache_accounting(queries.size(), stats, stats.cache_misses, accounting_good);
  Verdict lost_query;
  check_cache_accounting(queries.size() + 1, stats, stats.cache_misses, lost_query);
  t.expect("hits + misses below the queries sent", accounting_good, lost_query);
  Verdict few_misses;
  check_cache_accounting(queries.size(), stats, stats.cache_misses + 1, few_misses);
  t.expect("misses below the distinct keys generated", accounting_good, few_misses);

  // A failed shape check in a real figure pass.
  maia::core::SuiteRunner runner(1);
  maia::core::SuiteResult suite = runner.run({&maia::core::table1_system});
  const Verdict suite_good = verdict_of(suite_passes(suite), "shape checks");
  suite.figures.front().result.checks.front().pass = false;
  t.expect("one failed shape check", suite_good,
           verdict_of(suite_passes(suite), "shape checks"));

  std::printf("selftest: %d of %d wrong inputs caught\n", t.caught, t.caught + t.missed);
  return t.missed == 0 ? 0 : 1;
}

}  // namespace ledger

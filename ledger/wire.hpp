// The closed-loop load of the wire workloads and its per-phase checks,
// shared by run_wire() and the self-test, which drives the same loop
// against an in-process server that misbehaves on purpose.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "ledger.hpp"
#include "net/protocol.hpp"
#include "svc/query.hpp"

namespace ledger {

/// A client connection that reads frames with a deadline, so a dropped
/// response fails the run instead of blocking it.
class FrameConn {
 public:
  FrameConn() = default;
  explicit FrameConn(int fd) : fd_(fd) {}
  ~FrameConn() { close(); }
  FrameConn(const FrameConn&) = delete;
  FrameConn& operator=(const FrameConn&) = delete;

  bool connect(const std::string& address, std::string* error);
  void close();
  bool send(std::span<const std::uint8_t> bytes);
  /// The next whole frame; nothing on disconnect, on a framing failure, or
  /// when the socket stays silent for `timeout_ms`.
  std::optional<maia::net::Frame> read_frame(int timeout_ms);

 private:
  int fd_ = -1;
  int timeout_ms_ = -1;  ///< SO_RCVTIMEO currently set on fd_
  maia::net::FrameParser parser_;
};

/// How one phase offers its load.  Each connection keeps `window` frames of
/// `frame` queries in flight; it stops sending after `seconds` or after
/// `frames_per_connection` frames (whichever is set), then collects what is
/// still in flight.
struct LoadPlan {
  std::size_t frame = 16;
  int window = 1;
  double seconds = 0.0;
  std::uint64_t frames_per_connection = 0;
  int read_timeout_ms = 10000;
};

struct LoadResult {
  std::uint64_t frames_sent = 0;
  std::uint64_t frames_answered = 0;  ///< correct BatchResponses
  std::uint64_t frames_failed = 0;    ///< typed error responses
  std::uint64_t mismatches = 0;       ///< wrong bytes, ids or shapes
  std::uint64_t queries = 0;
  bool transport_ok = true;           ///< no disconnect, no read timeout
  double seconds = 0.0;
  LatencyHistogram frame_us;
  /// Queries answered in each whole kRateWindowS window of a timed phase,
  /// by the time their response arrived; empty for a phase of fixed work.
  std::vector<std::uint64_t> window_queries;

  /// Queries per second: the median over the phase's whole windows, or
  /// all queries over the phase's time when it has none.
  double qps() const;
  double mean_qps() const { return static_cast<double>(queries) / seconds; }
  void merge(const LoadResult& o);
};

/// Width of the windows that qps() takes its median over.  A co-tenant
/// burst that slows a few seconds of a run moves a run's mean by its
/// share of the run, but leaves the median of the windows where it was.
inline constexpr double kRateWindowS = 0.5;

/// Drive every connection, all starting together.  Frames are slices of
/// `hot`; connection t takes every conns.size()-th slice, starting at t.
/// Every response is compared byte for byte with `want`, the reference
/// answers of `hot`.
LoadResult run_load(std::span<FrameConn* const> conns,
                    const std::vector<maia::svc::Query>& hot,
                    const maia::svc::BatchResults& want, const LoadPlan& plan);

/// The checks of one phase: every frame sent got a correct response, the
/// front server counted as many served frames as the client answered, and
/// the backends' engines saw exactly the queries answered.
void check_phase(const LoadResult& r, std::uint64_t front_served_delta,
                 std::uint64_t engine_query_delta, Verdict& verdict);

}  // namespace ledger

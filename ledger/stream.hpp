// Seeded design-space query stream for the engine and wire workloads.
//
// The mix follows the repository's own sweep traffic, the grid of
// bench/sweep_grid.hpp that maia_sweep, maia_client and CI send: one third
// each of exec, collective and latency queries; the grid's 8 kernels and
// the collective each one exercises; its four execution modes (host
// native, Phi 0 post-update, Phi 0 pre-update, symmetric); its geometric
// ladder of 44 message sizes from 16 B to 4 MiB; and its ladder of
// working sets from 16 KiB to 2 MiB, which reaches memory.
//
// The grid asks each question once.  fresh() keeps most questions new by
// jittering inside those ladders, so the stream itself can count a lower
// bound on the distinct keys it produced (the sweep_cold miss check needs
// one):
//   * collectives carry a message size strictly between two adjacent
//     rungs, in sequence per interval, so the first gap - 1 draws of each
//     interval are pairwise distinct;
//   * latency walks use a working set whole lines above a rung and below
//     the next, distinct for the first rung/64 - 1 draws of each interval;
//   * exec queries come from a space of only ~2k keys, so they are
//     counted exactly with a bitmap.
// Hot queries (hot_set()) sit on the rungs themselves, so they never
// collide with fresh collectives or fresh latency walks.
//
// Every generated query is already canonical (threads and ranks within
// the device's hardware contexts, the post-update stack for intra-device
// collectives), so a raw key equals the engine's canonical key.
#pragma once

#include <cstdint>
#include <set>
#include <tuple>
#include <vector>

#include "arch/registry.hpp"
#include "sim/rng.hpp"
#include "svc/engine.hpp"  // sweep_grid.hpp needs QueryEngine
#include "svc/query.hpp"
#include "sweep_grid.hpp"

namespace ledger {

class QueryStream {
 public:
  static constexpr int kKernels = 8;
  static constexpr int kWorkingSets = 8;  ///< grid rungs, 16 KiB .. 2 MiB

  explicit QueryStream(std::uint64_t seed)
      : rng_(seed),
        sizes_(maia::sweepgrid::message_sizes()),
        coll_seq_(sizes_.size() - 1, 0),
        lat_seq_(kWorkingSets - 1, 0) {
    const auto node = maia::arch::maia_node();
    for (const maia::arch::DeviceId id : {maia::arch::DeviceId::kHost,
                                          maia::arch::DeviceId::kPhi0}) {
      max_threads_[static_cast<int>(id)] = node.device(id).total_threads();
    }
    exec_seen_.assign(static_cast<std::size_t>(kKernels) * 2 * 1024, false);
  }

  /// A query the stream has (almost always) never produced before.
  maia::svc::Query fresh() {
    switch (rng_.next_below(3)) {
      case 0:
        return exec();
      case 1: {
        const std::size_t r = rng_.next_below(coll_seq_.size());
        const std::uint64_t gap = sizes_[r + 1] - sizes_[r];
        return collective(sizes_[r] + 1 + coll_seq_[r]++ % (gap - 1));
      }
      default: {
        const std::size_t r = rng_.next_below(lat_seq_.size());
        const maia::sim::Bytes rung = working_set(r);
        return latency(rung + 64 * (1 + lat_seq_[r]++ % (rung / 64 - 1)));
      }
    }
  }

  /// `n` re-referenced queries of the same kind shares, on the ladders'
  /// rungs, so distinct from every fresh() collective and latency query.
  std::vector<maia::svc::Query> hot_set(std::size_t n) {
    std::vector<maia::svc::Query> hot;
    hot.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      switch (rng_.next_below(3)) {
        case 0:
          hot.push_back(exec());
          break;
        case 1: {
          hot.push_back(collective(sizes_[rng_.next_below(sizes_.size())]));
          const maia::svc::CollectiveQuery& c = hot.back().coll;
          hot_coll_.insert({static_cast<int>(c.op), static_cast<int>(c.device), c.ranks,
                            c.message_bytes});
          break;
        }
        default: {
          hot.push_back(latency(working_set(rng_.next_below(kWorkingSets))));
          const maia::svc::LatencyQuery& l = hot.back().lat;
          hot_lat_.insert({static_cast<int>(l.device), l.working_set});
          break;
        }
      }
    }
    return hot;
  }

  /// Lower bound on the distinct keys produced so far (fresh and hot).
  std::uint64_t distinct_lower_bound() const {
    std::uint64_t n = exec_distinct_ + hot_coll_.size() + hot_lat_.size();
    for (std::size_t r = 0; r < coll_seq_.size(); ++r) {
      const std::uint64_t distinct = sizes_[r + 1] - sizes_[r] - 1;
      n += coll_seq_[r] < distinct ? coll_seq_[r] : distinct;
    }
    for (std::size_t r = 0; r < lat_seq_.size(); ++r) {
      const std::uint64_t distinct = working_set(r) / 64 - 1;
      n += lat_seq_[r] < distinct ? lat_seq_[r] : distinct;
    }
    return n;
  }

  std::uint64_t below(std::uint64_t n) { return rng_.next_below(n); }

 private:
  static maia::sim::Bytes working_set(std::size_t rung) {
    return maia::sweepgrid::kernel_working_set(rung);
  }

  /// The grid's execution modes, uniformly: host native or Phi 0 with its
  /// stack, or symmetric (host and Phi, the cross-device p2p question).
  maia::sweepgrid::Mode mode() {
    return static_cast<maia::sweepgrid::Mode>(rng_.next_below(maia::sweepgrid::kModeCount));
  }

  std::uint16_t threads_on(maia::arch::DeviceId device) {
    return static_cast<std::uint16_t>(
        1 + rng_.next_below(max_threads_[static_cast<int>(device)]));
  }

  maia::svc::Query exec() {
    maia::svc::ExecQuery e;
    e.kernel = static_cast<std::uint16_t>(rng_.next_below(kKernels));
    e.device = maia::sweepgrid::mode_device(mode());
    e.threads = threads_on(e.device);
    const std::size_t slot =
        (static_cast<std::size_t>(e.kernel) * 2 + static_cast<std::size_t>(e.device)) * 1024 +
        e.threads;
    if (!exec_seen_[slot]) {
      exec_seen_[slot] = true;
      ++exec_distinct_;
    }
    return maia::svc::Query::of(e);
  }

  maia::svc::Query collective(std::uint64_t message_bytes) {
    const maia::sweepgrid::Mode m = mode();
    maia::svc::CollectiveQuery c;
    const bool symmetric = m == maia::sweepgrid::Mode::kSymmetric;
    c.op = symmetric ? maia::svc::CollectiveOp::kCrossP2P
                     : maia::sweepgrid::kernel_op(rng_.next_below(kKernels));
    c.device = maia::sweepgrid::mode_device(m);
    c.ranks = threads_on(c.device);
    c.message_bytes = message_bytes;
    // Symmetric mode's stack, and the canonical one of every intra-device
    // collective, is the post-update stack.
    c.stack = maia::fabric::SoftwareStack::kPostUpdate;
    return maia::svc::Query::of(c);
  }

  maia::svc::Query latency(maia::sim::Bytes ws) {
    maia::svc::LatencyQuery l;
    l.device = maia::sweepgrid::mode_device(mode());
    l.working_set = ws;
    l.iterations = 4;
    return maia::svc::Query::of(l);
  }

  maia::sim::Rng rng_;
  std::vector<maia::sim::Bytes> sizes_;
  int max_threads_[2] = {1, 1};  ///< host, Phi 0
  std::vector<bool> exec_seen_;
  std::uint64_t exec_distinct_ = 0;
  std::vector<std::uint64_t> coll_seq_;  ///< per message-size interval
  std::vector<std::uint64_t> lat_seq_;   ///< per working-set interval
  std::set<std::tuple<int, int, std::uint16_t, std::uint64_t>> hot_coll_;
  std::set<std::pair<int, maia::sim::Bytes>> hot_lat_;
};

}  // namespace ledger

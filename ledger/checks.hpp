// Correctness checks of the benchmark.  Each checker is a function of what
// a run observed and what it computed apart from the program, so the
// self-test (selftest.cpp) can feed it deliberately wrong inputs and
// confirm the run would report incorrect outputs.  The wire workloads'
// per-phase checks are in wire.hpp, beside the load they check.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <string>

#include "core/runner.hpp"
#include "memsim/latency_walker.hpp"
#include "net/protocol.hpp"
#include "svc/engine.hpp"
#include "svc/query.hpp"

namespace ledger {

/// Accumulates check outcomes; one failure makes the whole run incorrect.
/// The first few failures are described on stderr.
class Verdict {
 public:
  void expect(bool ok, const std::string& what);
  bool correct() const { return failures_ == 0; }
  std::uint64_t failures() const { return failures_; }

 private:
  std::uint64_t failures_ = 0;
};

/// Wire answers for queries [offset, offset + got.size()) against the
/// reference lanes, byte for byte.
inline bool wire_answers_match(std::span<const maia::net::WireResult> got,
                               const maia::svc::BatchResults& want,
                               std::size_t offset) {
  if (offset + got.size() > want.size()) return false;
  for (std::size_t j = 0; j < got.size(); ++j) {
    const std::size_t i = offset + j;
    if (std::memcmp(&got[j].value, &want.values()[i], sizeof(double)) != 0 ||
        std::memcmp(&got[j].secondary, &want.secondary()[i], sizeof(double)) != 0 ||
        got[j].flags != want.flags()[i]) {
      return false;
    }
  }
  return true;
}

/// Engine answers for queries [offset, offset + want.size()) of `got`
/// against a reference evaluation of just those queries, byte for byte.
inline bool batch_slice_matches(const maia::svc::BatchResults& got, std::size_t offset,
                                const maia::svc::BatchResults& want) {
  const std::size_t n = want.size();
  if (offset + n > got.size()) return false;
  return std::memcmp(got.values().data() + offset, want.values().data(),
                     n * sizeof(double)) == 0 &&
         std::memcmp(got.secondary().data() + offset, want.secondary().data(),
                     n * sizeof(double)) == 0 &&
         std::memcmp(got.flags().data() + offset, want.flags().data(),
                     n * sizeof(std::uint32_t)) == 0;
}

/// A latency answer against the brute-force walk of the same question.
inline bool latency_matches_walk(double value, double secondary,
                                 const maia::mem::WalkResult& brute) {
  const double mem_share = brute.level_mix.empty() ? 0.0 : brute.level_mix.back();
  return std::memcmp(&value, &brute.avg_latency, sizeof(double)) == 0 &&
         std::memcmp(&secondary, &mem_share, sizeof(double)) == 0;
}

/// Every shape check of every figure passed (82/82 at the time of writing).
inline bool suite_passes(const maia::core::SuiteResult& suite) {
  return suite.checks_total() > 0 && suite.checks_passed() == suite.checks_total();
}

/// Cache accounting of an engine over everything it evaluated: every
/// query sent was a hit or a miss, and every distinct key the generator
/// produced missed at least once.
inline void check_cache_accounting(std::uint64_t sent, const maia::svc::EngineStats& s,
                                   std::uint64_t distinct_lower_bound, Verdict& verdict) {
  verdict.expect(s.cache_hits + s.cache_misses == sent && s.cache_misses >= distinct_lower_bound,
                 "engine hits + misses = queries sent and misses >= distinct keys (sent " +
                     std::to_string(sent) + ", hits " + std::to_string(s.cache_hits) +
                     ", misses " + std::to_string(s.cache_misses) + ", distinct >= " +
                     std::to_string(distinct_lower_bound) + ")");
}

}  // namespace ledger

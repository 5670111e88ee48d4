// selector.hpp — deterministic runtime sampling of a quorum strategy.
//
// The planner (strategy/planner.hpp) produces a read/write strategy; the
// selector turns it into *targeted* quorum accesses: each operation draws
// one quorum from the distribution and the protocol contacts only its
// members (with timeout-driven escalation back to full broadcast — see
// component::send_targeted in sim/transport.hpp).
//
// Sampling is a pure function of (selector seed, process id, operation
// sequence number, access kind): no shared mutable state, no dependence
// on the simulation RNG. Two runs of the same workload therefore sample
// identical quorums regardless of experiment-runner thread count, and
// two processes never correlate their draws unless seeded identically.
#pragma once

#include <cstdint>
#include <memory>

#include "strategy/strategy.hpp"

namespace gqs {

/// Stateless strategy sampler shared by every process of an engine.
class quorum_selector {
 public:
  quorum_selector(read_write_strategy strategy, std::uint64_t seed)
      : strategy_(std::move(strategy)), seed_(seed) {
    strategy_.validate();
  }

  const read_write_strategy& strategy() const noexcept { return strategy_; }
  std::uint64_t seed() const noexcept { return seed_; }

  /// The write quorum targeted by operation `op_seq` of process `self`.
  /// (Figure 3 contacts *write* quorums for both GET clock probes and SET
  /// batches; read quorums are covered passively through gossip.)
  process_set sample_write(process_id self, std::uint64_t op_seq) const {
    return draw(strategy_.writes, self, op_seq, 0x57u);
  }

  /// A read-quorum draw for analyses that need one (the runtime itself
  /// never multicasts to read quorums — gossip is broadcast).
  process_set sample_read(process_id self, std::uint64_t op_seq) const {
    return draw(strategy_.reads, self, op_seq, 0x52u);
  }

 private:
  static std::uint64_t splitmix64(std::uint64_t x) {
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
  }

  process_set draw(const quorum_strategy& s, process_id self,
                   std::uint64_t op_seq, std::uint64_t salt) const {
    const std::uint64_t h = splitmix64(
        splitmix64(seed_ ^ (static_cast<std::uint64_t>(self) << 32) ^ salt) ^
        op_seq);
    // 53 uniform bits → u in [0, 1); inverse-CDF over the weights.
    const double u = static_cast<double>(h >> 11) * 0x1.0p-53;
    double cum = 0;
    for (std::size_t i = 0; i < s.weights.size(); ++i) {
      cum += s.weights[i];
      if (u < cum) return s.quorums[i];
    }
    return s.quorums.back();  // u landed in the rounding slack
  }

  read_write_strategy strategy_;
  std::uint64_t seed_;
};

using selector_ptr = std::shared_ptr<const quorum_selector>;

}  // namespace gqs

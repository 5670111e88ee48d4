// qaf_ablation.hpp — deliberately weakened variants of the Figure 3
// access functions, for the ablation study of the paper's logical-clock
// mechanism (bench_ablation_clocks, E12 in EXPERIMENTS.md).
//
// The full protocol has two clock-driven waits:
//
//   (1) quorum_get's cutoff: ask a *write* quorum for clocks, take the
//       max as c_get, and accept only read-quorum gossip with clocks
//       ≥ c_get (Figure 3 lines 5-8);
//   (2) quorum_set's confirmation: after the write quorum applied the
//       update, wait until some read quorum gossips clocks ≥ c_set
//       (Figure 3 lines 18-20).
//
// Dropping either breaks Real-time ordering (Theorem 3's proof uses both):
// a "push-only" quorum_get may assemble a read quorum from *stale* cached
// gossip that predates a completed quorum_set. The weakened protocol is
// the shared engine core (qaf_core.hpp's push_qaf) with the corresponding
// wait switched off, so the effect of each wait can be measured; the
// register built on top then exhibits machine-detectable non-linearizable
// histories (stale reads / new-old inversions).
//
// This is NOT part of the supported API — it exists to demonstrate that
// the paper's mechanism is load-bearing.
#pragma once

#include <utility>

#include "quorum/qaf_core.hpp"
#include "register/atomic_register.hpp"

namespace gqs {

/// The weakened variants are push_qaf_options with a wait switched off.
using ablated_qaf_options = push_qaf_options;

template <class S>
class ablated_qaf : public push_qaf<S> {
 public:
  ablated_qaf(quorum_config config, S initial, ablated_qaf_options options)
      : push_qaf<S>(std::move(config), std::move(initial), options) {}
};

/// Figure 4 register over the weakened access functions.
using ablated_register_node = atomic_register<ablated_qaf<reg_state>>;

}  // namespace gqs

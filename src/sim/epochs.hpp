// epochs.hpp — piecewise-constant connectivity view of a fault plan.
//
// Failures in a fault_plan are monotone: a crashed process stays crashed
// and a disconnected channel stays down. Connectivity is therefore
// piecewise constant over a handful of epochs — one per distinct failure
// instant — and each epoch's liveness set, channel matrix, residual graph
// and reachability closure can be computed once up front. The simulator
// and the flooding layer then answer alive / channel-up / reachability
// queries with O(1) table lookups instead of re-deriving them per event.
//
// Monotonicity also gives the flooding layer its pruning rules: every
// future epoch's residual graph is a subgraph of the current one, so a
// destination unreachable *now* is unreachable *forever*, and a neighbor
// whose every path to a destination runs through the forwarder stays that
// way (sim/flooding.hpp).
#pragma once

#include <cstddef>
#include <vector>

#include "graph/digraph.hpp"
#include "sim/options.hpp"

namespace gqs {

/// Precomputed per-epoch connectivity tables for one fault plan.
/// Queries assume t >= 0 (the simulator's clock never goes negative).
class connectivity_epochs {
 public:
  explicit connectivity_epochs(const fault_plan& plan);

  process_id system_size() const noexcept { return n_; }
  std::size_t epoch_count() const noexcept { return epochs_.size(); }

  /// Index of the epoch containing time t. Pass the previous answer as
  /// `hint` to make the common monotone-time query O(1) amortized; the
  /// hint-still-valid fast path stays inline (it runs once per event).
  std::size_t epoch_at(sim_time t, std::size_t hint = 0) const {
    if (hint < epochs_.size() && epochs_[hint].start <= t &&
        (hint + 1 == epochs_.size() || t < epochs_[hint + 1].start))
      return hint;
    return epoch_scan(t);
  }

  /// First instant of epoch e (epoch 0 starts at 0).
  sim_time epoch_start(std::size_t e) const { return epochs_[e].start; }

  const process_set& alive(std::size_t e) const { return epochs_[e].alive; }
  bool alive(std::size_t e, process_id p) const {
    // p < system_size() <= the set capacity always holds on this path, so
    // the unchecked word test (no bounds branch) is safe — this runs once
    // or twice per event.
    return epochs_[e].alive.test(p);
  }

  /// True iff the channel (from, to) is up throughout epoch e. Liveness of
  /// the endpoints is a separate question (matching fault_plan semantics:
  /// a send to a crashed process still traverses an up channel and is
  /// dropped at delivery).
  bool channel_up(std::size_t e, process_id from, process_id to) const {
    return epochs_[e].up[from].test(to);
  }

  /// All channels leaving `from` that are up in epoch e.
  const process_set& up_out_channels(std::size_t e, process_id from) const {
    return epochs_[e].up[from];
  }

  /// The residual graph of epoch e: up channels restricted to live
  /// processes (the paper's G \ f once all of f's failures have struck).
  const digraph& residual(std::size_t e) const { return epochs_[e].residual; }

  /// Processes reachable from v in epoch e's residual graph, including v
  /// itself; empty for a crashed v. Because failures are monotone this set
  /// only shrinks across epochs: a process outside it can never again be
  /// reached from v.
  const process_set& reachable(std::size_t e, process_id v) const {
    return epochs_[e].reach[v];
  }

 private:
  std::size_t epoch_scan(sim_time t) const;

  struct epoch {
    sim_time start = 0;
    process_set alive;
    std::vector<process_set> up;  ///< up[v] = set of up channels (v, *)
    digraph residual;  ///< up channels among live processes
    std::vector<process_set> reach;  ///< reach[v] = residual reachability
  };

  process_id n_;
  std::vector<epoch> epochs_;
};

}  // namespace gqs

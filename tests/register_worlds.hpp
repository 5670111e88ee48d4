// register_worlds.hpp — shared helpers for register tests: the canonical
// register_world (workload/worlds.hpp) over the Figure 4 and ABD nodes.
#pragma once

#include "core/factories.hpp"
#include "register/atomic_register.hpp"
#include "workload/worlds.hpp"

namespace gqs::testing {

using gqs::register_world;

using gqs_register_world = register_world<gqs_register_node>;
using abd_register_world = register_world<abd_register_node>;

/// A world running the Figure 4 register over the Figure 1 GQS under
/// failure pattern `pattern_index` (0..3), failing at time 0.
inline gqs_register_world figure1_register_world(
    int pattern_index, std::uint64_t seed,
    generalized_qaf_options opts = {}) {
  const auto fig = make_figure1();
  return gqs_register_world(
      4, fault_plan::from_pattern(fig.gqs.fps[pattern_index], 0), seed,
      network_options{}, quorum_config::of(fig.gqs), reg_state{}, opts);
}

}  // namespace gqs::testing

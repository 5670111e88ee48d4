// history_completion.hpp — Herlihy–Wing completion of a keyed history
// before the linearizability check.
//
// A run that ends with operations still pending (processes outside U_f
// under a failure pattern) may contain reads that returned the value of a
// write that never completed. The write's version is recorded only on
// completion, so the checker would see a read of an unknown version. A
// history is linearizable iff some completion of it is (Herlihy and Wing),
// so each pending write whose value some read returned is given the
// version that read observed and a response after every other event; every
// other pending operation is dropped.
#pragma once

#include <cstdint>
#include <vector>

#include "register/keyed_register_client.hpp"

namespace perfbench {

struct completed_history {
  /// Completed operations plus the completed pending writes, in the
  /// original order.
  std::vector<gqs::keyed_register_op> ops;
  /// Pending writes completed because a read returned their value.
  std::uint64_t completed_writes = 0;
  /// Pending operations dropped (unobserved writes and all pending reads).
  std::uint64_t dropped = 0;
};

completed_history complete_pending_writes(
    const std::vector<gqs::keyed_register_op>& history);

}  // namespace perfbench

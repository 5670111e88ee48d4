#include "history_completion.hpp"

#include <algorithm>
#include <map>
#include <utility>

namespace perfbench {

completed_history complete_pending_writes(
    const std::vector<gqs::keyed_register_op>& history) {
  // Versions observed by completed reads, by (key, value). Client values
  // are unique per write (pack_client_value), so a value names its write.
  std::map<std::pair<gqs::service_key, gqs::reg_value>, gqs::reg_version>
      observed;
  gqs::sim_time last_time = 0;
  std::uint64_t last_stamp = 0;
  for (const gqs::keyed_register_op& rec : history) {
    const gqs::register_op& op = rec.op;
    last_time = std::max(last_time, op.invoked_at);
    last_stamp = std::max(last_stamp, op.invoked_stamp);
    if (!op.complete()) continue;
    last_time = std::max(last_time, *op.returned_at);
    last_stamp = std::max(last_stamp, op.returned_stamp);
    if (op.kind == gqs::reg_op_kind::read && op.version.number > 0)
      observed.try_emplace({rec.key, op.value}, op.version);
  }

  completed_history out;
  out.ops.reserve(history.size());
  for (const gqs::keyed_register_op& rec : history) {
    if (rec.op.complete()) {
      out.ops.push_back(rec);
      continue;
    }
    const auto it = observed.find({rec.key, rec.op.value});
    if (rec.op.kind != gqs::reg_op_kind::write || it == observed.end()) {
      ++out.dropped;
      continue;
    }
    gqs::keyed_register_op done = rec;
    done.op.version = it->second;
    done.op.returned_at = last_time + 1;
    done.op.returned_stamp = last_stamp + 1 + out.completed_writes;
    out.ops.push_back(done);
    ++out.completed_writes;
  }
  return out;
}

}  // namespace perfbench

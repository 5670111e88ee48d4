// perfbench_selftest — checks the benchmark's own machinery.
//
//   * pending-write completion: the kv-fig1-f1 history that a plain
//     check_keyed_history rejects (a read of a write still pending when the
//     run ended) passes once completed, while a read of a value nobody
//     wrote still fails;
//   * every workload, briefly, at a seed other than the benchmark's
//     default: untraced and traced passes pass every output check and give
//     bit-identical simulated results.
//
// Exits 0 iff every check passes.
#include <algorithm>
#include <iostream>
#include <string>

#include "history_completion.hpp"
#include "lincheck/history_checker.hpp"
#include "workload/clients.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

int failures = 0;

void expect(bool cond, const std::string& what) {
  std::cout << (cond ? "ok   " : "FAIL ") << what << '\n';
  if (!cond) ++failures;
}

gqs::keyed_register_op op(gqs::reg_op_kind kind, gqs::process_id proc,
                          gqs::reg_value value, std::uint64_t inv,
                          std::uint64_t ret, gqs::reg_version version) {
  gqs::keyed_register_op rec;
  rec.key = 0;
  rec.op.kind = kind;
  rec.op.proc = proc;
  rec.op.value = value;
  rec.op.invoked_at = static_cast<gqs::sim_time>(inv);
  rec.op.invoked_stamp = inv;
  if (ret > 0) {
    rec.op.returned_at = static_cast<gqs::sim_time>(ret);
    rec.op.returned_stamp = ret;
    rec.op.version = version;
  }
  return rec;
}

void completion_unit_cases() {
  using gqs::reg_op_kind;
  const gqs::reg_value pending = gqs::pack_client_value(2, 19);
  // A write still pending at the end of the run, read by another client.
  std::vector<gqs::keyed_register_op> h = {
      op(reg_op_kind::write, 0, gqs::pack_client_value(0, 0), 1, 2, {1, 0}),
      op(reg_op_kind::write, 2, pending, 3, 0, {}),
      op(reg_op_kind::read, 1, pending, 4, 5, {2, 2}),
      op(reg_op_kind::read, 2, 0, 6, 0, {}),  // pending read: dropped
  };
  const auto raw = gqs::check_keyed_history(h, 1);
  expect(!raw.linearizable, "raw history with a read of a pending write is "
                            "rejected: " + raw.reason);
  const completed_history done = complete_pending_writes(h);
  expect(done.completed_writes == 1 && done.dropped == 1,
         "one pending write completed, one pending read dropped");
  const auto fixed = gqs::check_keyed_history(done.ops, 1);
  expect(fixed.linearizable, "completed history passes");

  // A read of a value no write (pending or not) ever carried still fails.
  h.push_back(op(reg_op_kind::read, 1, gqs::pack_client_value(3, 7), 7, 8,
                 {3, 3}));
  const auto bad = gqs::check_keyed_history(complete_pending_writes(h).ops, 1);
  expect(!bad.linearizable,
         "read of a never-written value still fails: " + bad.reason);
}

void fig1_f1_history() {
  // f1 cut in at 200 ms, seed 1, 500 ops per client: the run whose plain
  // check reports a read of an unknown version at key 2.
  workload_config c;
  c.kind = workload_kind::kv_fig1_f1;
  c.seed = 1;
  c.ops_per_process = 500;
  const pass_result r = run_pass(c, /*traced=*/false);
  expect(r.ok, "kv-fig1-f1 seed 1 x500 passes after completion" +
                   (r.ok ? std::string() : ": " + r.why));
  expect(r.completed_pending_writes > 0,
         "kv-fig1-f1 seed 1 x500 needed pending-write completion (" +
             std::to_string(r.completed_pending_writes) + " writes)");
}

void brief_runs_at_second_seed() {
  constexpr std::uint64_t kSeed = 2;
  for (const workload_info& w : workloads()) {
    workload_config c;
    c.kind = w.kind;
    c.seed = kSeed;
    c.ops_per_process = std::max<std::uint64_t>(4, w.ops_per_process / 10);
    c.worlds = w.worlds;
    const pass_result u = run_pass(c, false);
    const pass_result t = run_pass(c, true);
    expect(u.ok, std::string(w.name) + " untraced pass checks pass" +
                     (u.ok ? "" : ": " + u.why));
    expect(t.ok, std::string(w.name) + " traced pass checks pass" +
                     (t.ok ? "" : ": " + t.why));
    expect(u.digest == t.digest && !u.digest.empty(),
           std::string(w.name) + " traced pass reproduces untraced results");
    expect(u.counted_completed == u.counted_attempted,
           std::string(w.name) + " every counted op completed");
  }
}

}  // namespace

int main() {
  completion_unit_cases();
  fig1_f1_history();
  brief_runs_at_second_seed();
  std::cout << (failures == 0 ? "all checks passed" : "checks failed") << '\n';
  return failures == 0 ? 0 : 1;
}

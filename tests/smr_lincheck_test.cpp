// Linearizability coverage for the sharded SMR service: committed
// command histories — fault-free, and of the U_f clients of Figure 1
// under f1 — stream through the dependency-graph checkers live (off the
// workload driver's on_issue/on_complete_op hooks) and batch-wise across
// checker thread counts; a mutation test corrupts a recorded history the
// way a dropped commit notification would manifest (an operation
// completing against a stale state) and asserts the checkers catch it.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/factories.hpp"
#include "core/quorum_system.hpp"
#include "history_mutations.hpp"
#include "lincheck/dependency_graph.hpp"
#include "lincheck/history_checker.hpp"
#include "workload/smr_workload.hpp"

namespace gqs {
namespace {

constexpr sim_time kLong = 600L * 1000 * 1000;  // 600 s

client_workload_options small_workload() {
  client_workload_options opts;
  opts.keys = 8;
  opts.zipf_theta = 0.5;
  opts.read_ratio = 0.5;
  opts.ops_per_process = 48;
  opts.inflight_window = 2;
  opts.seed = 7;
  return opts;
}

/// Routes only `clients`' operations into the service: an op issued at any
/// other process stays pending forever without taking effect.
struct client_subset_adapter {
  smr_adapter inner;
  process_set clients;

  void write(process_id p, service_key key, reg_value x,
             std::function<void(reg_version)> done) {
    if (clients.contains(p)) inner.write(p, key, x, std::move(done));
  }
  void read(process_id p, service_key key,
            std::function<void(reg_value, reg_version)> done) {
    if (clients.contains(p)) inner.read(p, key, std::move(done));
  }
};

TEST(SmrLincheck, StreamingCheckerPassesLiveWorkload) {
  struct input {
    std::string name;
    generalized_quorum_system gqs;
    fault_plan faults;
    smr_options options;
    process_set clients;
  };
  const auto fig = make_figure1();
  const failure_pattern& f1 = fig.gqs.fps[0];
  smr_options sharded;
  sharded.shards = 2;
  const std::vector<input> inputs = {
      {"threshold n=4, two shards", threshold_quorum_system(4, 1),
       fault_plan::none(4), sharded, process_set::full(4)},
      // Only c->a and a<->b survive and d is crashed: the U_f clients a and
      // b run against a log whose read quorum {a, c} includes c, which
      // hears nothing.
      {"Figure 1 under f1, U_f clients", fig.gqs,
       fault_plan::from_pattern(f1, 0), {}, compute_u_f(fig.gqs, f1)},
  };
  for (const input& in : inputs) {
    SCOPED_TRACE(in.name);
    smr_world w(in.gqs, in.faults, 51, /*keys=*/8, in.options);
    workload_driver<client_subset_adapter> driver(
        w.sim, client_subset_adapter{w.adapter(), in.clients},
        small_workload());

    streaming_checker live(8);
    std::uint64_t client_done = 0;
    driver.on_issue = [&](const keyed_register_op& rec, std::size_t) {
      live.on_invoke(rec);
    };
    driver.on_complete_op = [&](const keyed_register_op& rec,
                                std::size_t idx) {
      live.on_complete(rec, idx);
      ++client_done;
    };
    driver.launch();
    const std::uint64_t want =
        small_workload().ops_per_process *
        static_cast<std::uint64_t>(in.clients.size());
    ASSERT_TRUE(w.sim.run_until_condition(
        [&] { return client_done == want; }, kLong));

    EXPECT_TRUE(live.finish().linearizable) << live.result().reason;
    EXPECT_EQ(live.checked_ops(), driver.completed());
    if (driver.done()) {
      // Nothing left pending, so every op retires behind the cut.
      EXPECT_EQ(live.retired_ops(), driver.completed());
      EXPECT_EQ(live.active_ops(), 0u);
    }
    EXPECT_TRUE(check_smr_agreement(w.replicas()).linearizable);

    // Batch verdicts agree across checker thread counts.
    keyed_check_options serial, pooled;
    serial.threads = 1;
    pooled.threads = 2;
    const auto l1 = check_keyed_history(driver.history(), 8, serial);
    const auto l2 = check_keyed_history(driver.history(), 8, pooled);
    EXPECT_TRUE(l1.linearizable) << l1.reason;
    EXPECT_EQ(l1.linearizable, l2.linearizable);
    EXPECT_EQ(l1.per_key_ops, l2.per_key_ops);
  }
}

TEST(SmrLincheck, LinearizableUnderLeaderCrash) {
  const auto gqs = threshold_quorum_system(4, 1);
  auto faults = fault_plan::none(4);
  faults.crash(0, 2000000);  // shard 0's initial leader dies mid-run
  smr_world w(gqs, std::move(faults), 52, /*keys=*/8);
  client_workload_options opts = small_workload();
  opts.ops_per_process = 24;
  workload_driver<smr_adapter> driver(w.sim, w.adapter(), opts);

  streaming_checker live(8);
  driver.on_issue = [&](const keyed_register_op& rec, std::size_t) {
    live.on_invoke(rec);
  };
  driver.on_complete_op = [&](const keyed_register_op& rec, std::size_t idx) {
    live.on_complete(rec, idx);
  };
  driver.launch();
  // The crashed process's own clients die with it: wait until every
  // completed operation retired instead of full driver completion.
  w.sim.run_until_condition([&] { return driver.done(); }, kLong);
  EXPECT_GT(driver.completed(), 0u);
  EXPECT_TRUE(live.finish().linearizable) << live.result().reason;
  std::vector<const smr_service*> survivors = {w.nodes[1], w.nodes[2],
                                               w.nodes[3]};
  EXPECT_TRUE(check_smr_agreement(survivors).linearizable);
}

TEST(SmrLincheck, DroppedCommitMutationIsCaught) {
  const auto gqs = threshold_quorum_system(4, 1);
  smr_world w(gqs, fault_plan::none(4), 53, /*keys=*/8);
  workload_driver<smr_adapter> driver(w.sim, w.adapter(), small_workload());
  driver.launch();
  ASSERT_TRUE(
      w.sim.run_until_condition([&] { return driver.done(); }, kLong));

  // Find a key whose history can host the mutation: a read rewound to a
  // stale version — exactly how a dropped commit notification manifests
  // (the replica answered from a state missing an already-committed
  // write).
  bool hosted = false;
  for (service_key key = 0; key < 8 && !hosted; ++key) {
    register_history h = driver.history_of(key);
    ASSERT_TRUE(check_history(h).linearizable);
    for (std::uint64_t seed = 0; seed < 4 && !hosted; ++seed) {
      register_history mutated = h;
      if (mutate_stale_read(mutated, seed).empty()) continue;
      hosted = true;
      EXPECT_FALSE(check_history(mutated).linearizable)
          << "stale read on key " << key << " slipped past the checker";
      EXPECT_FALSE(check_dependency_graph(mutated).linearizable);
    }
  }
  ASSERT_TRUE(hosted) << "no key history could host the mutation";
}

}  // namespace
}  // namespace gqs

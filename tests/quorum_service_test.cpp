// Tests for the multi-object quorum service: engine mechanics (batching,
// shared gossip, stream freshness, NACK repair, telemetry counter
// bridges), the keyed register built on it, per-key linearizability of
// multi-key traces under failures, and the mutation check that a
// deliberately stale read (ablated get cutoff) is caught by the Wing–Gong
// checker.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <map>
#include <utility>

#include "core/factories.hpp"
#include "lincheck/dependency_graph.hpp"
#include "lincheck/wing_gong.hpp"
#include "quorum/quorum_service.hpp"
#include "register/keyed_register.hpp"
#include "register/keyed_register_client.hpp"
#include "sim/simulation.hpp"

namespace gqs {
namespace {

constexpr sim_time kLong = 600L * 1000 * 1000;

struct service_world {
  simulation sim;
  std::vector<keyed_register_node*> nodes;
  keyed_register_client<keyed_register_node> client;

  service_world(service_key keys, const generalized_quorum_system& gqs,
                fault_plan faults, std::uint64_t seed,
                service_options opts = {}, network_options net = {})
      : sim(gqs.system_size(), net, std::move(faults), seed),
        client(sim, {}) {
    std::vector<keyed_register_node*> ptrs;
    for (process_id p = 0; p < gqs.system_size(); ++p) {
      auto comp = std::make_unique<keyed_register_node>(
          keys, quorum_config::of(gqs), opts);
      ptrs.push_back(comp.get());
      sim.set_node(p, std::make_unique<single_host>(std::move(comp)));
    }
    nodes = ptrs;
    client = keyed_register_client<keyed_register_node>(sim, std::move(ptrs));
    sim.start();
    sim.run_until(0);
  }

  bool settle() {
    return sim.run_until_condition([&] { return client.all_complete(); },
                                   sim.now() + kLong);
  }
};

// ---------- gossip_stream unit tests ----------

TEST(GossipStream, InOrderAdvancesFreshness) {
  gossip_stream s;
  EXPECT_EQ(s.freshness(), 0u);
  EXPECT_TRUE(s.observe(1, 10));
  EXPECT_TRUE(s.observe(2, 11));
  EXPECT_EQ(s.freshness(), 11u);
  EXPECT_EQ(s.next_expected(), 3u);
  EXPECT_FALSE(s.has_gap());
}

TEST(GossipStream, GapBuffersUntilFilled) {
  gossip_stream s;
  EXPECT_FALSE(s.observe(2, 11));  // gap: 1 missing
  EXPECT_TRUE(s.has_gap());
  EXPECT_EQ(s.freshness(), 0u);
  EXPECT_EQ(s.backlog(), 1u);
  EXPECT_TRUE(s.observe(1, 10));  // fills the gap, drains 2
  EXPECT_EQ(s.freshness(), 11u);
  EXPECT_FALSE(s.has_gap());
  EXPECT_EQ(s.backlog(), 0u);
}

TEST(GossipStream, DuplicatesIgnored) {
  gossip_stream s;
  EXPECT_TRUE(s.observe(1, 10));
  EXPECT_FALSE(s.observe(1, 10));
  EXPECT_FALSE(s.observe(1, 99));
  EXPECT_EQ(s.freshness(), 10u);
}

TEST(GossipStream, RepairJumpsOverLostGossip) {
  gossip_stream s;
  EXPECT_TRUE(s.observe(1, 10));
  EXPECT_FALSE(s.observe(3, 30));  // 2 lost
  EXPECT_FALSE(s.observe(5, 50));  // 4 lost
  EXPECT_EQ(s.freshness(), 10u);
  EXPECT_TRUE(s.repair(4, 40));  // covers 2..4, drains buffered 3 and 5
  EXPECT_EQ(s.freshness(), 50u);
  EXPECT_EQ(s.next_expected(), 6u);
  EXPECT_FALSE(s.has_gap());
}

TEST(GossipStream, StaleRepairIgnored) {
  gossip_stream s;
  for (std::uint64_t i = 1; i <= 5; ++i) EXPECT_TRUE(s.observe(i, i));
  EXPECT_FALSE(s.repair(3, 100));  // the gap already closed
  EXPECT_EQ(s.freshness(), 5u);
  EXPECT_EQ(s.next_expected(), 6u);
}

// ---------- engine mechanics ----------

TEST(QuorumService, SingleKeyRoundTrip) {
  const auto fig = make_figure1();
  service_world w(4, fig.gqs, fault_plan::none(4), 1);
  w.client.invoke_write(0, 2, 42);
  ASSERT_TRUE(w.settle());
  const auto ri = w.client.invoke_read(1, 2);
  ASSERT_TRUE(w.settle());
  EXPECT_EQ(w.client.history().at(ri).op.value, 42);
  EXPECT_EQ(w.client.history().at(ri).op.version,
            (reg_version{1, 0}));
}

TEST(QuorumService, SetAckNamesTheNextGossipClock) {
  // A SET ack must name the clock of the *next* gossip, the first sent
  // after the apply. With a 50 ms period the write completes inside one
  // period; an ack naming the current clock would be met by gossip sent
  // before the apply, and the read would return the initial value.
  const auto fig = make_figure1();
  service_options opts;
  opts.gossip_period = 50000;
  service_world w(4, fig.gqs, fault_plan::none(4), 1, opts);
  w.client.invoke_write(0, 2, 42);
  ASSERT_TRUE(w.settle());
  const auto ri = w.client.invoke_read(1, 2);
  ASSERT_TRUE(w.settle());
  EXPECT_EQ(w.client.history().at(ri).op.value, 42);
}

TEST(QuorumService, OperationsCoalesceIntoSharedBatches) {
  const auto fig = make_figure1();
  service_world w(16, fig.gqs, fault_plan::none(4), 2);
  // 8 writes issued at the same instant at process 0: the service must
  // flush them as ONE set batch behind ONE clock probe (each write is a
  // get phase then a set phase; phases of concurrent ops coalesce).
  for (service_key k = 0; k < 8; ++k)
    w.client.invoke_write(0, k, 100 + static_cast<reg_value>(k));
  ASSERT_TRUE(w.settle());
  const auto& c = w.nodes[0]->counters();
  EXPECT_EQ(c.ops_started, 16u);  // 8 gets + 8 sets
  EXPECT_EQ(c.ops_completed, 16u);
  EXPECT_EQ(c.probes_sent, 1u) << "get phases must share one CLOCK probe";
  // The 8 set phases start when their get phases complete; gets complete
  // together (same cutoff, same gossip tick), so the sets coalesce too.
  EXPECT_LE(c.set_batches_sent, 2u);
  EXPECT_EQ(c.set_entries_sent, 8u);
}

TEST(QuorumService, GossipCarriesOnlyDirtyKeys) {
  const auto fig = make_figure1();
  service_world w(64, fig.gqs, fault_plan::none(4), 3);
  w.client.invoke_write(0, 5, 7);
  ASSERT_TRUE(w.settle());
  w.sim.run_until(w.sim.now() + 200000);  // ~40 idle gossip periods
  for (process_id p = 0; p < 4; ++p) {
    const auto& c = w.nodes[p]->counters();
    EXPECT_GE(c.gossip_batches_sent, 30u) << "process " << p;
    // Only the written key (and only while dirty) ever rides a batch; an
    // idle 64-key service must NOT broadcast 64 entries per period.
    EXPECT_LE(c.gossip_entries_sent, 4u) << "process " << p;
  }
}

TEST(QuorumService, TelemetryBridgesSumCountersAcrossNodes) {
  // Every svc.* registry counter is the sum over processes of the
  // matching counters() field, and every sim.* row is its sim_metrics
  // field. The size checks fail the build when a struct grows a field
  // this test does not list.
  const auto fig = make_figure1();
  network_options net;
  net.telemetry = true;
  service_world w(8, fig.gqs, fault_plan::none(4), 4, {}, net);
  for (service_key k = 0; k < 8; ++k) {
    w.client.invoke_write(k % 4, k, 100 + static_cast<reg_value>(k));
    w.client.invoke_read((k + 1) % 4, k);
  }
  ASSERT_TRUE(w.settle());
  const auto obs = w.sim.obs().metrics.snapshot();
  using field = std::uint64_t service_counters::*;
#define GQS_SVC_FIELD(f) {"svc." #f, &service_counters::f}
  static constexpr std::pair<const char*, field> bridged[] = {
      GQS_SVC_FIELD(ops_started), GQS_SVC_FIELD(ops_completed),
      GQS_SVC_FIELD(flushes), GQS_SVC_FIELD(probes_sent),
      GQS_SVC_FIELD(set_batches_sent), GQS_SVC_FIELD(set_entries_sent),
      GQS_SVC_FIELD(gossip_batches_sent), GQS_SVC_FIELD(gossip_entries_sent),
      GQS_SVC_FIELD(nacks_sent), GQS_SVC_FIELD(repairs_sent),
      GQS_SVC_FIELD(targeted_probes), GQS_SVC_FIELD(targeted_set_batches),
      GQS_SVC_FIELD(escalations)};
#undef GQS_SVC_FIELD
  static_assert(std::size(bridged) * sizeof(std::uint64_t) ==
                sizeof(service_counters));
  for (const auto& [name, cell] : bridged) {
    std::uint64_t sum = 0;
    for (const keyed_register_node* node : w.nodes)
      sum += node->counters().*cell;
    EXPECT_EQ(obs.counter_value(name), sum) << name;
  }
  EXPECT_GT(obs.counter_value("svc.set_entries_sent"), 0u);
  EXPECT_GT(obs.counter_value("svc.gossip_entries_sent"), 0u);

  using sim_field = std::uint64_t sim_metrics::*;
#define GQS_SIM_FIELD(f) {"sim." #f, &sim_metrics::f}
  static constexpr std::pair<const char*, sim_field> sim_bridged[] = {
      GQS_SIM_FIELD(messages_sent), GQS_SIM_FIELD(messages_delivered),
      GQS_SIM_FIELD(dropped_disconnected),
      GQS_SIM_FIELD(dropped_receiver_crashed), GQS_SIM_FIELD(timers_fired),
      GQS_SIM_FIELD(events_processed), GQS_SIM_FIELD(bytes_sent),
      GQS_SIM_FIELD(bytes_delivered), GQS_SIM_FIELD(dropped_queue_full)};
#undef GQS_SIM_FIELD
  // The one field not listed is the peak gauge, checked below.
  static_assert((std::size(sim_bridged) + 1) * sizeof(std::uint64_t) ==
                sizeof(sim_metrics));
  const sim_metrics& m = w.sim.metrics();
  for (const auto& [name, cell] : sim_bridged)
    EXPECT_EQ(obs.counter_value(name), m.*cell) << name;
  EXPECT_EQ(obs.gauge_level("sim.max_link_queue_depth"),
            static_cast<std::int64_t>(m.max_link_queue_depth));
  EXPECT_GT(obs.counter_value("sim.messages_delivered"), 0u);
  EXPECT_GT(obs.counter_value("sim.events_processed"), 0u);
}

TEST(QuorumService, ReplicasConvergeAndKeyClocksTrack) {
  const auto fig = make_figure1();
  service_world w(8, fig.gqs, fault_plan::none(4), 4);
  for (process_id p = 0; p < 4; ++p)
    w.client.invoke_write(p, p, 1000 + p);
  ASSERT_TRUE(w.settle());
  w.sim.run_until(w.sim.now() + 100000);  // let gossip settle
  for (process_id p = 0; p < 4; ++p) {
    for (service_key k = 0; k < 4; ++k) {
      EXPECT_EQ(w.nodes[p]->local_state(k).value, 1000 + k)
          << "process " << p << " key " << k;
      EXPECT_GT(w.nodes[p]->key_clock(k), 0u);
    }
    for (service_key k = 4; k < 8; ++k)
      EXPECT_EQ(w.nodes[p]->key_clock(k), 0u) << "untouched key " << k;
  }
}

TEST(QuorumService, PipelinedOpsOnDistinctKeysOverlap) {
  const auto fig = make_figure1();
  service_world w(8, fig.gqs, fault_plan::none(4), 5);
  // 4 concurrent writes at one process, distinct keys — all must complete
  // (the seed path would require 4 sequential round trips).
  for (service_key k = 0; k < 4; ++k)
    w.client.invoke_write(2, k, static_cast<reg_value>(k));
  ASSERT_TRUE(w.settle());
  EXPECT_EQ(w.client.pending_count(), 0u);
}

// ---------- NACK / repair plumbing ----------

/// Exposes deliver() so the test can inject a crafted out-of-order
/// gossip (a gap that regular traffic closes only slowly).
struct open_register : keyed_register_node {
  using keyed_register_node::keyed_register_node;
  using keyed_register_node::deliver;
};

TEST(QuorumService, PersistentGossipGapTriggersNack) {
  const auto fig = make_figure1();
  simulation sim(4, network_options{}, fault_plan::none(4), 6);
  std::vector<open_register*> nodes;
  for (process_id p = 0; p < 4; ++p) {
    auto comp = std::make_unique<open_register>(4, quorum_config::of(fig.gqs),
                                                service_options{});
    nodes.push_back(comp.get());
    sim.set_node(p, std::make_unique<single_host>(std::move(comp)));
  }
  sim.start();
  sim.run_until(0);
  // Inject gossip seq 6 from origin 1 into process 0: a 5-deep gap that
  // regular gossip needs 5 periods to close, so the NACK pacing (2 ticks)
  // fires first.
  using gossip_msg = quorum_service<reg_value>::gossip_msg;
  using gossip_entry = quorum_service<reg_value>::gossip_entry;
  sim.post(0, [&] {
    std::vector<gossip_entry> entries;
    nodes[0]->deliver(1, make_message<gossip_msg>(
                             6, 6,
                             pooled_batch<gossip_entry>(std::move(entries),
                                                        nullptr)));
  });
  EXPECT_TRUE(sim.run_until_condition(
      [&] { return nodes[0]->counters().nacks_sent > 0; }, 200000));
  EXPECT_TRUE(sim.run_until_condition(
      [&] { return nodes[1]->counters().repairs_sent > 0; }, 200000));
  // The gap eventually closes (via regular gossip reaching seq 5-6) and
  // the backlog drains.
  EXPECT_TRUE(sim.run_until_condition(
      [&] { return nodes[0]->gossip_backlog() == 0; }, 400000));
}

/// Records the keys of every repair batch delivered to its process.
struct repair_recorder : component {
  std::vector<std::vector<service_key>> repairs;
  void deliver(process_id, const message_ptr& payload) override {
    using repair_msg = quorum_service<reg_value>::repair_msg;
    if (const auto* m = message_cast<repair_msg>(payload)) {
      std::vector<service_key> keys;
      for (const auto& e : m->entries) keys.push_back(e.key);
      repairs.push_back(std::move(keys));
    }
  }
};

TEST(QuorumService, NackRepairCarriesKeysAppliedBeforeTheGap) {
  // A key applied at t = 2 ms first rides gossip seq 1 (t = 5 ms). A NACK
  // from seq 1 asks for every change since the stream began (repair floor
  // 0), so the key's clock must exceed 0 even though the engine clock had
  // not ticked yet when the key was applied.
  const auto fig = make_figure1();
  simulation sim(4, network_options{}, fault_plan::none(4), 7);
  auto rec = std::make_unique<repair_recorder>();
  repair_recorder* recorder = rec.get();
  sim.set_node(0, std::make_unique<single_host>(std::move(rec)));
  std::vector<open_register*> nodes;
  for (process_id p = 1; p < 4; ++p) {
    auto comp = std::make_unique<open_register>(4, quorum_config::of(fig.gqs),
                                                service_options{});
    nodes.push_back(comp.get());
    sim.set_node(p, std::make_unique<single_host>(std::move(comp)));
  }
  sim.start();
  sim.run_until(0);
  using service = quorum_service<reg_value>;
  sim.post_after(1, 2000, [&] {
    std::vector<service::set_entry> entries{
        {1, 3, service::state_type{77, reg_version{1, 0}}}};
    nodes[0]->deliver(0, make_message<service::set_batch_msg>(
                             1, pooled_batch<service::set_entry>(
                                    std::move(entries), nullptr)));
  });
  sim.post_after(1, 7000, [&] {
    nodes[0]->deliver(0, make_message<service::nack_msg>(1));
  });
  ASSERT_TRUE(sim.run_until_condition(
      [&] { return !recorder->repairs.empty(); }, 200000));
  const auto& keys = recorder->repairs.front();
  EXPECT_NE(std::find(keys.begin(), keys.end(), 3u), keys.end())
      << "the repair must carry key 3";
}

// ---------- latency under the paper's failure pattern ----------

TEST(QuorumService, UfLatencyStaysFlatUnderF1) {
  // Under f1 the only live read quorum is {a, c}, and c hears no one: its
  // clock advances only at its own gossip. Cutoffs taken from the write
  // quorum {a, b} must not run ahead of c's clock write after write, or
  // U_f latency grows without bound.
  const auto fig = make_figure1();
  service_world w(1, fig.gqs, fault_plan::from_pattern(fig.gqs.fps[0], 0),
                  8);
  for (int round = 0; round < 150; ++round) {
    w.client.invoke_write(0, 0, round);
    w.client.invoke_read(1, 0);
    ASSERT_TRUE(w.settle()) << "round " << round;
  }
  const auto& h = w.client.history();
  ASSERT_EQ(h.size(), 300u);
  const auto latency = [&](std::size_t i) {
    return *h[i].op.returned_at - h[i].op.invoked_at;
  };
  sim_time first = 0, last = 0;
  for (std::size_t i = 0; i < 20; ++i) {
    first = std::max(first, latency(i));
    last = std::max(last, latency(h.size() - 1 - i));
  }
  EXPECT_LT(last, 100000) << "first-20 max " << first << " us, last-20 max "
                          << last << " us";
}

// ---------- multi-key traces: per-key linearizability ----------

/// A mixed multi-key run under a Figure 1 failure pattern; every per-key
/// projection must independently linearize (black-box Wing–Gong and the
/// white-box Appendix-B checker agree).
TEST(QuorumService, MultiKeyTracesLinearizePerKey) {
  const auto fig = make_figure1();
  for (int pattern = 0; pattern < 4; ++pattern) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      service_world w(4, fig.gqs,
                      fault_plan::from_pattern(fig.gqs.fps[pattern], 0),
                      seed * 977 + static_cast<std::uint64_t>(pattern));
      // Interleave writers and readers over U_f only (the paper's
      // (F, τ)-wait-freedom promises termination there, not at every
      // correct process — under f1, c pushes but never hears back); key p
      // is written by p and concurrently read by two other processes.
      std::vector<process_id> procs;
      for (process_id p : compute_u_f(fig.gqs, fig.gqs.fps[pattern]))
        procs.push_back(p);
      const std::size_t m = procs.size();
      ASSERT_GE(m, 2u);
      for (int round = 0; round < 3; ++round) {
        for (std::size_t i = 0; i < m; ++i) {
          const process_id p = procs[i];
          w.client.invoke_write(p, p,
                                100 * (round + 1) + static_cast<int>(p));
          w.client.invoke_read(procs[(i + 1) % m], p);
          if (m >= 3) w.client.invoke_read(procs[(i + 2) % m], p);
        }
        ASSERT_TRUE(w.settle()) << "pattern " << pattern << " seed " << seed
                                << " round " << round;
      }
      for (service_key k = 0; k < 4; ++k) {
        const register_history h = w.client.history_of(k);
        ASSERT_LE(h.size(), 64u);
        const auto wing_gong = check_linearizable(h);
        EXPECT_TRUE(wing_gong.linearizable)
            << "pattern " << pattern << " seed " << seed << " key " << k
            << ": " << wing_gong.reason;
        const auto white_box = check_dependency_graph(h);
        EXPECT_TRUE(white_box.linearizable)
            << "pattern " << pattern << " seed " << seed << " key " << k
            << ": " << white_box.reason;
      }
    }
  }
}

// ---------- mutation: a stale read must be caught ----------

TEST(QuorumService, AblatedGetCutoffProducesCaughtStaleRead) {
  // With the Figure 3 get cutoff disabled, a quorum_get completes from
  // arbitrarily stale cached gossip: a read started right after a
  // completed write returns the old value somewhere across seeds, and the
  // Wing–Gong checker must flag the history. (The mirror image of the
  // single-object ablation tests — proving the multi-key engine kept the
  // clock mechanism load-bearing, and that the checker would catch a
  // regression in it.)
  const auto fig = make_figure1();
  service_options ablated;
  ablated.use_get_cutoff = false;
  int violations = 0;
  for (std::uint64_t seed = 0; seed < 16; ++seed) {
    service_world w(2, fig.gqs, fault_plan::from_pattern(fig.gqs.fps[0], 0),
                    seed, ablated);
    bool ok = true;
    for (int round = 0; round < 6 && ok; ++round) {
      const auto wi = w.client.invoke_write(0, 1, 100 + round);
      ok &= w.sim.run_until_condition([&] { return w.client.complete(wi); },
                                      w.sim.now() + kLong);
      if (!ok) break;
      const auto ri = w.client.invoke_read(1, 1);
      ok &= w.sim.run_until_condition([&] { return w.client.complete(ri); },
                                      w.sim.now() + kLong);
    }
    if (!ok) continue;
    violations +=
        !check_linearizable(w.client.history_of(1)).linearizable;
  }
  EXPECT_GT(violations, 0);
}

TEST(QuorumService, FullProtocolSafeWhereAblationViolates) {
  // Control for the mutation test: the same scenario under the published
  // protocol stays linearizable for every seed.
  const auto fig = make_figure1();
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    service_world w(2, fig.gqs, fault_plan::from_pattern(fig.gqs.fps[0], 0),
                    seed);
    bool ok = true;
    for (int round = 0; round < 6 && ok; ++round) {
      const auto wi = w.client.invoke_write(0, 1, 100 + round);
      ok &= w.sim.run_until_condition([&] { return w.client.complete(wi); },
                                      w.sim.now() + kLong);
      if (!ok) break;
      const auto ri = w.client.invoke_read(1, 1);
      ok &= w.sim.run_until_condition([&] { return w.client.complete(ri); },
                                      w.sim.now() + kLong);
    }
    ASSERT_TRUE(ok) << "seed " << seed;
    const auto r = check_linearizable(w.client.history_of(1));
    EXPECT_TRUE(r.linearizable) << "seed " << seed << ": " << r.reason;
  }
}

TEST(QuorumService, CompletesAndStaysLinearizableOnCongestedLinks) {
  // Per-link bandwidth on: every probe, set batch and gossip pays
  // serialization time and queues FIFO behind earlier traffic. Unbounded
  // queues, so congestion delays but never loses protocol messages.
  network_options net;
  net.channel.bytes_per_us = 0.5;
  const auto fig = make_figure1();
  service_world w(8, fig.gqs, fault_plan::none(4), /*seed=*/5, {}, net);
  for (int round = 0; round < 4; ++round) {
    for (process_id p = 0; p < 4; ++p)
      w.client.invoke_write(p, p % 8, 10 * round + p);
    ASSERT_TRUE(w.settle()) << "round " << round;
    for (process_id p = 0; p < 4; ++p)
      w.client.invoke_read((p + 1) % 4, p % 8);
    ASSERT_TRUE(w.settle()) << "round " << round;
  }
  for (service_key k = 0; k < 8; ++k) {
    const auto r = check_linearizable(w.client.history_of(k));
    EXPECT_TRUE(r.linearizable) << "key " << k << ": " << r.reason;
  }
  EXPECT_GT(w.sim.metrics().bytes_sent, 0u);
  EXPECT_GT(w.sim.metrics().max_link_queue_depth, 0u);
  EXPECT_EQ(w.sim.metrics().dropped_queue_full, 0u);
}

}  // namespace
}  // namespace gqs

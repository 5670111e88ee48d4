// Tests for the sharded, pipelined SMR service (smr/smr_service.hpp):
// commit and convergence over Figure-1 and threshold systems, Phase-1
// recovery when a report's applied prefix runs ahead of the new leader,
// command forwarding, batching, sharding, lease-driven leader re-election
// after a crash, retry-based exactly-once application, and
// strategy-targeted Phase-2 quorums (fewer messages, identical outcomes,
// escalation as the liveness fallback).
#include <gtest/gtest.h>

#include <iterator>
#include <map>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "core/factories.hpp"
#include "core/quorum_system.hpp"
#include "strategy/planner.hpp"
#include "strategy/shard_plan.hpp"
#include "workload/smr_workload.hpp"

namespace gqs {
namespace {

constexpr sim_time kLong = 600L * 1000 * 1000;  // 600 s
constexpr process_id kA = 0, kB = 1, kC = 2;

/// Submits `count` writes from `proc` (keys round-robin) and counts
/// completions at the submitting replica.
struct submit_batch {
  std::uint64_t completed = 0;

  void fire(simulation& sim, smr_service* node, process_id proc,
            service_key keys, std::uint64_t count, sim_time at = 0) {
    sim.post_after(proc, at, [this, node, proc, keys, count] {
      for (std::uint64_t i = 0; i < count; ++i)
        node->submit_write(static_cast<service_key>(i % keys),
                           pack_client_value(proc, i),
                           [this](reg_version) { ++completed; });
    });
  }
};

/// Every replica applied the same log prefix per shard, covering at
/// least `min_cmds` commands.
bool converged(const smr_world& w, std::uint64_t min_cmds) {
  for (std::size_t s = 0; s < w.nodes.front()->shard_count(); ++s) {
    std::uint64_t lead = 0;
    for (const smr_service* r : w.nodes)
      lead = std::max(lead, r->applied_prefix(s));
    for (const smr_service* r : w.nodes)
      if (r->applied_prefix(s) != lead) return false;
  }
  for (const smr_service* r : w.nodes)
    if (r->counters().commands_applied < min_cmds) return false;
  return true;
}

TEST(SmrService, CommitsAndConvergesOnFigure1) {
  const auto fig = make_figure1();
  smr_world w(fig.gqs, fault_plan::none(4), /*seed=*/1, /*keys=*/8);
  // Every process submits concurrently, racing for the same slots.
  std::map<process_id, submit_batch> batches;
  for (process_id p = 0; p < 4; ++p)
    batches[p].fire(w.sim, w.nodes[p], p, 8, 16);
  ASSERT_TRUE(w.sim.run_until_condition(
      [&] {
        for (const auto& [p, b] : batches)
          if (b.completed != 16) return false;
        return true;
      },
      kLong));
  // Let commits propagate to every passive learner.
  ASSERT_TRUE(
      w.sim.run_until_condition([&] { return converged(w, 64); }, kLong));
  EXPECT_TRUE(check_smr_agreement(w.replicas()).linearizable);
  // All replicas applied the identical log, every command exactly once, so
  // per-key states agree.
  for (const smr_service* r : w.nodes)
    EXPECT_EQ(r->counters().commands_applied, 64u);
  for (service_key k = 0; k < 8; ++k)
    for (const smr_service* r : w.nodes)
      EXPECT_EQ(r->state_of(k), w.nodes[0]->state_of(k)) << "key " << k;
}

TEST(SmrService, TelemetryBridgesSumCountersAcrossNodes) {
  // Every smr.* registry counter is the sum over processes of the
  // matching counters() field; the size check fails the build when
  // smr_counters grows a field this test does not list.
  const auto fig = make_figure1();
  network_options net = consensus_world::partial_sync();
  net.telemetry = true;
  smr_world w(fig.gqs, fault_plan::none(4), /*seed=*/2, /*keys=*/8, {}, net);
  std::map<process_id, submit_batch> batches;
  for (process_id p = 0; p < 4; ++p)
    batches[p].fire(w.sim, w.nodes[p], p, 8, 6);
  ASSERT_TRUE(
      w.sim.run_until_condition([&] { return converged(w, 24); }, kLong));
  const auto obs = w.sim.obs().metrics.snapshot();
  using field = std::uint64_t smr_counters::*;
#define GQS_SMR_FIELD(f) {"smr." #f, &smr_counters::f}
  static constexpr std::pair<const char*, field> bridged[] = {
      GQS_SMR_FIELD(commands_submitted), GQS_SMR_FIELD(commands_forwarded),
      GQS_SMR_FIELD(commands_applied),   GQS_SMR_FIELD(commands_deduped),
      GQS_SMR_FIELD(entries_proposed),   GQS_SMR_FIELD(entries_committed),
      GQS_SMR_FIELD(phase1_rounds),      GQS_SMR_FIELD(targeted_phase1),
      GQS_SMR_FIELD(targeted_phase2),    GQS_SMR_FIELD(escalations),
      GQS_SMR_FIELD(view_changes),       GQS_SMR_FIELD(heartbeats),
      GQS_SMR_FIELD(retries)};
#undef GQS_SMR_FIELD
  static_assert(std::size(bridged) * sizeof(std::uint64_t) ==
                sizeof(smr_counters));
  for (const auto& [name, cell] : bridged) {
    std::uint64_t sum = 0;
    for (const smr_service* node : w.nodes) sum += node->counters().*cell;
    EXPECT_EQ(obs.counter_value(name), sum) << name;
  }
  EXPECT_EQ(obs.counter_value("smr.commands_applied"), 4u * 24u);
  EXPECT_GT(obs.counter_value("smr.entries_committed"), 0u);
}

TEST(SmrService, IsolatedReplicaLearnsNothingUnderF1) {
  const auto fig = make_figure1();
  smr_world w(fig.gqs, fault_plan::from_pattern(fig.gqs.fps[0], 0),
              /*seed=*/6, /*keys=*/4);
  submit_batch a;
  a.fire(w.sim, w.nodes[kA], kA, 4, 4);
  ASSERT_TRUE(
      w.sim.run_until_condition([&] { return a.completed == 4; }, kLong));
  w.sim.run_until(w.sim.now() + 60L * 1000 * 1000);
  EXPECT_GT(w.nodes[kB]->applied_prefix(0), 0u);
  EXPECT_EQ(w.nodes[kC]->applied_prefix(0), 0u)
      << "c cannot hear any decision under f1";
  EXPECT_TRUE(check_smr_agreement(w.replicas()).linearizable);
}

TEST(SmrService, ViewsReconvergeAfterAsynchronousPeriod) {
  // Before GST message delays reach 200 ms, beyond the 200 ms patience of
  // view 1, so replicas drift apart in views while two of them crash.
  // After GST the survivors must settle on one leader per shard again: a
  // process that a read quorum has promised a higher view it leads jumps
  // there, and a leader whose rounds stall yields its view.
  const auto gqs = threshold_quorum_system(8, 2);
  shard_plan_options po;
  po.shards = 4;
  po.selector_seed = 8;
  const auto plan = plan_shards(gqs, po);
  smr_options opts;
  opts.shards = 4;
  opts.shard_selectors = plan.selectors;
  opts.leaders = plan.leaders;
  auto faults = fault_plan::none(8);
  faults.crash(0, 1296000);
  faults.crash(5, 2424000);
  smr_world w(gqs, std::move(faults), /*seed=*/8, /*keys=*/8, opts,
              consensus_world::partial_sync(/*gst=*/40L * 1000 * 1000));
  std::map<process_id, submit_batch> first, second;
  std::vector<const smr_service*> survivors;
  for (process_id p = 1; p < 8; ++p) {
    if (p == 5) continue;
    first[p].fire(w.sim, w.nodes[p], p, 8, 10);
    second[p].fire(w.sim, w.nodes[p], p, 8, 10, /*at=*/3L * 1000 * 1000);
    survivors.push_back(w.nodes[p]);
  }
  ASSERT_TRUE(w.sim.run_until_condition(
      [&] {
        for (const auto& [p, b] : first)
          if (b.completed != 10 || second[p].completed != 10) return false;
        return true;
      },
      kLong));
  EXPECT_TRUE(check_smr_agreement(survivors).linearizable);
}

TEST(SmrService, ShardsPartitionTheKeyspace) {
  const auto gqs = threshold_quorum_system(4, 1);
  smr_options opts;
  opts.shards = 4;
  smr_world w(gqs, fault_plan::none(4), 2, /*keys=*/8, opts);
  EXPECT_EQ(w.nodes[0]->shard_of(5), 5u % 4u);
  submit_batch batch;
  batch.fire(w.sim, w.nodes[1], 1, 8, 24);
  ASSERT_TRUE(w.sim.run_until_condition([&] { return batch.completed == 24; },
                                        kLong));
  ASSERT_TRUE(
      w.sim.run_until_condition([&] { return converged(w, 24); }, kLong));
  // Every shard carried some of the keys (24 writes over 8 keys, keys
  // round-robin over 4 shards).
  for (std::size_t s = 0; s < 4; ++s)
    EXPECT_GT(w.nodes[0]->applied_prefix(s), 0u) << "shard " << s;
  // Default leader placement round-robins shards over processes.
  EXPECT_EQ(w.nodes[0]->leader_of(0, 1), 0);
  EXPECT_EQ(w.nodes[0]->leader_of(1, 1), 1);
  EXPECT_EQ(w.nodes[0]->leader_of(3, 1), 3);
  EXPECT_TRUE(check_smr_agreement(w.replicas()).linearizable);
}

TEST(SmrService, SameInstantCommandsShareOneEntry) {
  const auto gqs = threshold_quorum_system(4, 1);
  smr_world w(gqs, fault_plan::none(4), 3, /*keys=*/4);
  submit_batch batch;
  // 32 commands submitted at the leader in one instant: the flush
  // coalesces them into one batched entry — one Phase-2 round, not 32.
  batch.fire(w.sim, w.nodes[0], 0, 4, 32);
  ASSERT_TRUE(w.sim.run_until_condition([&] { return batch.completed == 32; },
                                        kLong));
  EXPECT_EQ(w.nodes[0]->counters().entries_proposed, 1u);
  EXPECT_EQ(w.nodes[0]->counters().commands_applied, 32u);
}

TEST(SmrService, PipelineCapsInflightNotThroughput) {
  const auto gqs = threshold_quorum_system(4, 1);
  smr_options opts;
  opts.pipeline_window = 2;
  opts.max_batch = 4;
  smr_world w(gqs, fault_plan::none(4), 4, /*keys=*/4, opts);
  submit_batch batch;
  batch.fire(w.sim, w.nodes[0], 0, 4, 32);  // 8 entries through a window of 2
  ASSERT_TRUE(w.sim.run_until_condition([&] { return batch.completed == 32; },
                                        kLong));
  EXPECT_EQ(w.nodes[0]->counters().entries_proposed, 8u);
  EXPECT_TRUE(check_smr_agreement(w.replicas()).linearizable);
}

TEST(SmrService, NonLeaderSubmissionsForwardToLeader) {
  const auto gqs = threshold_quorum_system(4, 1);
  smr_world w(gqs, fault_plan::none(4), 5, /*keys=*/4);
  // Shard 0's initial leader is process 0; submit at process 3.
  submit_batch batch;
  batch.fire(w.sim, w.nodes[3], 3, 4, 8);
  ASSERT_TRUE(w.sim.run_until_condition([&] { return batch.completed == 8; },
                                        kLong));
  EXPECT_EQ(w.nodes[3]->counters().commands_forwarded, 8u);
  EXPECT_GE(w.nodes[0]->counters().entries_proposed, 1u);
  EXPECT_TRUE(check_smr_agreement(w.replicas()).linearizable);
}

TEST(SmrService, LeaderCrashReElectsAndRecovers) {
  const auto gqs = threshold_quorum_system(4, 1);
  // Process 0 leads shard 0 in view 1 and crashes mid-run.
  auto faults = fault_plan::none(4);
  faults.crash(0, 500000);
  smr_world w(gqs, std::move(faults), 6, /*keys=*/4);
  submit_batch before, after;
  before.fire(w.sim, w.nodes[1], 1, 4, 4);
  after.fire(w.sim, w.nodes[2], 2, 4, 4, /*at=*/1000000);  // post-crash
  ASSERT_TRUE(w.sim.run_until_condition(
      [&] { return before.completed == 4 && after.completed == 4; }, kLong));
  // Survivors advanced past view 1 on lease expiry and re-elected.
  EXPECT_GT(w.nodes[1]->view_of(0), 1u);
  EXPECT_GT(w.nodes[1]->counters().view_changes +
                w.nodes[2]->counters().view_changes +
                w.nodes[3]->counters().view_changes,
            0u);
  std::vector<const smr_service*> survivors = {w.nodes[1], w.nodes[2],
                                               w.nodes[3]};
  EXPECT_TRUE(check_smr_agreement(survivors).linearizable);
}

TEST(SmrService, RetriesApplyExactlyOnce) {
  const auto gqs = threshold_quorum_system(4, 1);
  smr_options opts;
  // Resubmit far faster than the network settles: commands get forwarded
  // multiple times and may land in several entries; the per-submitter
  // sequence filters keep application exactly-once at every replica.
  opts.resubmit_timeout = 15000;  // 15 ms, under the max network delay
  smr_world w(gqs, fault_plan::none(4), 7, /*keys=*/4, opts);
  submit_batch batch;
  batch.fire(w.sim, w.nodes[3], 3, 4, 12);
  ASSERT_TRUE(w.sim.run_until_condition([&] { return batch.completed == 12; },
                                        kLong));
  ASSERT_TRUE(
      w.sim.run_until_condition([&] { return converged(w, 12); }, kLong));
  std::uint64_t retries = 0;
  for (const smr_service* r : w.nodes) retries += r->counters().retries;
  EXPECT_GT(retries, 0u);
  for (const smr_service* r : w.nodes)
    EXPECT_EQ(r->counters().commands_applied, 12u)
        << "replica applied a duplicate or lost a command";
  EXPECT_TRUE(check_smr_agreement(w.replicas()).linearizable);
}

TEST(SmrService, TargetedPhasesMatchBroadcastWithFewerMessages) {
  const auto gqs = threshold_quorum_system(8, 2);
  const auto plan = plan_optimal(gqs);
  auto run = [&](selector_ptr selector) {
    smr_options opts;
    opts.shard_selectors = {std::move(selector)};  // null: broadcast
    smr_world w(gqs, fault_plan::none(8), 11, /*keys=*/8, opts);
    submit_batch batch;
    batch.fire(w.sim, w.nodes[2], 2, 8, 40);
    EXPECT_TRUE(w.sim.run_until_condition(
        [&] { return batch.completed == 40; }, kLong));
    EXPECT_TRUE(
        w.sim.run_until_condition([&] { return converged(w, 40); }, kLong));
    std::map<service_key, reg_state> finals;
    for (service_key k = 0; k < 8; ++k) finals[k] = w.nodes[0]->state_of(k);
    EXPECT_TRUE(check_smr_agreement(w.replicas()).linearizable);
    return std::pair(finals, w.sim.metrics().messages_sent);
  };
  const auto [broadcast_finals, broadcast_msgs] = run(nullptr);
  const auto sel =
      std::make_shared<const quorum_selector>(plan.strategy, 0x5742);
  const auto [targeted_finals, targeted_msgs] = run(sel);
  EXPECT_EQ(broadcast_finals, targeted_finals);
  EXPECT_LT(targeted_msgs, broadcast_msgs);
}

TEST(SmrService, EscalationRestoresLivenessUnderCrash) {
  const auto gqs = threshold_quorum_system(8, 2);
  const auto plan = plan_optimal(gqs);
  smr_options opts;
  opts.shard_selectors = {
      std::make_shared<const quorum_selector>(plan.strategy, 7)};
  // One Phase-2 round per command. Process 4 is crashed from the start, so
  // a round whose sampled write quorum is {leader 0, 4, x} stalls until the
  // escalation broadcast brings in the live members.
  opts.max_batch = 1;
  auto faults = fault_plan::none(8);
  faults.crash(4, 0);
  smr_world w(gqs, std::move(faults), 12, /*keys=*/4, opts);
  submit_batch batch;
  batch.fire(w.sim, w.nodes[0], 0, 4, 20);
  ASSERT_TRUE(w.sim.run_until_condition([&] { return batch.completed == 20; },
                                        kLong));
  std::uint64_t escalations = 0;
  for (const smr_service* r : w.nodes)
    escalations += r->counters().escalations;
  EXPECT_GT(escalations, 0u);
  std::vector<const smr_service*> survivors;
  for (process_id p = 0; p < 8; ++p)
    if (p != 4) survivors.push_back(w.nodes[p]);
  EXPECT_TRUE(check_smr_agreement(survivors).linearizable);
}

TEST(SmrService, PerShardPlansDecorrelateLeadersAndSelectors) {
  const auto gqs = threshold_quorum_system(8, 2);
  shard_plan_options opts;
  opts.shards = 4;
  const auto plan = plan_shards(gqs, opts);
  ASSERT_EQ(plan.leaders.size(), 4u);
  ASSERT_EQ(plan.selectors.size(), 4u);
  // Leader duty spreads: no process leads more than ceil(shards / n)=1.
  for (const std::uint64_t c : plan.leader_counts(8)) EXPECT_LE(c, 1u);
  // Different shards draw decorrelated quorum streams.
  bool differ = false;
  for (std::uint64_t i = 0; i < 16 && !differ; ++i)
    differ = !(plan.selectors[0]->sample_write(0, i) ==
               plan.selectors[1]->sample_write(0, i));
  EXPECT_TRUE(differ);

  smr_options sopts;
  sopts.shards = 4;
  sopts.shard_selectors = plan.selectors;
  sopts.leaders = plan.leaders;
  smr_world w(gqs, fault_plan::none(8), 13, /*keys=*/8, sopts);
  submit_batch batch;
  batch.fire(w.sim, w.nodes[0], 0, 8, 32);
  ASSERT_TRUE(w.sim.run_until_condition([&] { return batch.completed == 32; },
                                        kLong));
  EXPECT_TRUE(check_smr_agreement(w.replicas()).linearizable);
}

/// One smr_service driven by hand: sends are recorded, timers fire only
/// when the test advances the clock, and the test injects every message.
struct scripted_transport final : transport {
  process_id me = 0;
  process_id n = 0;
  sim_time clock = 0;
  std::vector<message_ptr> sent;
  std::map<int, sim_time> timers;  // id -> deadline
  int next_timer = 0;

  void unicast(process_id, message_ptr m) override {
    sent.push_back(std::move(m));
  }
  void broadcast(message_ptr m) override { sent.push_back(std::move(m)); }
  int set_timer(sim_time delay) override {
    timers[next_timer] = clock + delay;
    return next_timer++;
  }
  process_id self() const override { return me; }
  process_id size() const override { return n; }
  sim_time now() const override { return clock; }

  /// Fires every timer due by `to`, in deadline order.
  void advance(component& c, sim_time to) {
    for (;;) {
      auto due = timers.end();
      for (auto it = timers.begin(); it != timers.end(); ++it)
        if (it->second <= to &&
            (due == timers.end() || it->second < due->second))
          due = it;
      if (due == timers.end()) break;
      const int id = due->first;
      clock = due->second;
      timers.erase(due);
      c.on_timeout(id);
    }
    clock = to;
  }

  template <class M>
  std::vector<const M*> sent_of() const {
    std::vector<const M*> out;
    for (const message_ptr& m : sent)
      if (const auto* typed = message_cast<M>(m)) out.push_back(typed);
    return out;
  }
};

TEST(SmrService, NewLeaderCatchesUpToReportedFloorBeforeProposing) {
  // n=4, reads of size 3, writes of size 2. Process 0 leads view 2. Its
  // reporters 1 and 2 have applied slot 0, which their 1Bs therefore
  // omit; process 0 has not learned it yet. Taking those reports at face
  // value, slot 0 would look free and 0's next batch would overwrite it.
  const auto gqs = threshold_quorum_system(4, 1);
  smr_options opts;
  opts.leaders = {3};  // leader(1) = 3, leader(2) = 0
  smr_service svc(4, quorum_config::of(gqs), opts);
  scripted_transport tr;
  tr.n = 4;
  svc.bind(tr);
  svc.start();
  ASSERT_EQ(tr.sent_of<smr_service::p1b_msg>().size(), 1u)
      << "entering view 1 pushes a 1B to its leader";

  // No activity from 3: the view-1 lease (200 ms) expires and 0 campaigns
  // in view 2 (patience 250 ms, so it is still campaigning at 300 ms).
  tr.advance(svc, 300000);
  ASSERT_EQ(svc.view_of(0), 2u);
  EXPECT_EQ(svc.counters().phase1_rounds, 1u);
  std::optional<reg_version> installed;
  svc.submit_write(1, 42, [&](reg_version v) { installed = v; });
  tr.advance(svc, tr.clock);  // the flush

  smr_service::p1b_report ahead;
  ahead.view = 2;
  ahead.floor = 1;
  svc.deliver(1, make_message<smr_service::p1b_msg>(0, ahead));
  svc.deliver(2, make_message<smr_service::p1b_msg>(0, ahead));
  tr.advance(svc, tr.clock);
  EXPECT_TRUE(tr.sent_of<smr_service::p2a_msg>().empty())
      << "Phase 1 finished from reports ahead of the leader's prefix";

  // The commit flood that taught the reporters slot 0 reaches 0 too.
  smr_command chosen;
  chosen.key = 1;
  chosen.value = 7;
  chosen.submitter = 3;
  const auto entry = std::make_shared<const smr_entry>(smr_entry{chosen});
  svc.deliver(3, make_message<smr_service::commit_msg>(0, 1, 0, entry));
  tr.advance(svc, tr.clock);
  ASSERT_EQ(svc.applied_prefix(0), 1u);
  ASSERT_TRUE(svc.log(0)[0]);
  EXPECT_EQ(*svc.log(0)[0], *entry);
  const auto p2as = tr.sent_of<smr_service::p2a_msg>();
  ASSERT_EQ(p2as.size(), 1u) << "Phase 1 completes once the prefix is in";
  EXPECT_EQ(p2as[0]->view, 2u);
  EXPECT_EQ(p2as[0]->slot, 1u) << "the new batch must not reuse slot 0";

  // A write quorum {0, 1} accepts: the write applies after slot 0's.
  svc.deliver(1, make_message<smr_service::p2b_msg>(0, 2, 1));
  ASSERT_TRUE(installed.has_value());
  EXPECT_EQ(svc.state_of(1).value, 42);
  EXPECT_EQ(installed->number, 2u);
  EXPECT_FALSE(svc.safety_violation().has_value());
}

TEST(SmrService, OptionValidationRejectsBadConfigs) {
  const auto gqs = threshold_quorum_system(4, 1);
  const auto config = quorum_config::of(gqs);
  smr_options bad;
  bad.shards = 0;
  EXPECT_THROW(smr_service(4, config, bad), std::invalid_argument);
  bad = {};
  bad.pipeline_window = 0;
  EXPECT_THROW(smr_service(4, config, bad), std::invalid_argument);
  bad = {};
  bad.heartbeat_period = bad.lease_duration;  // must undercut the lease
  EXPECT_THROW(smr_service(4, config, bad), std::invalid_argument);
  bad = {};
  bad.leaders = {0, 1};  // two leaders for one shard
  EXPECT_THROW(smr_service(4, config, bad), std::invalid_argument);
  bad = {};
  bad.shard_selectors = {nullptr, nullptr};  // two selectors for one shard
  EXPECT_THROW(smr_service(4, config, bad), std::invalid_argument);
  EXPECT_THROW(smr_service(0, config, {}), std::invalid_argument);
}

TEST(SmrService, CommitsAndConvergesOnCongestedLinks) {
  // Bandwidth-limited links under the partial-synchrony timing: Phase-2
  // and commit traffic serializes FIFO per link, so batches pay wire time
  // proportional to their entry count. Unbounded queues keep the protocol
  // lossless; leases are long enough to ride out the queueing delay.
  network_options net = consensus_world::partial_sync();
  net.channel.bytes_per_us = 0.5;
  const auto gqs = threshold_quorum_system(4, 1);
  smr_world w(gqs, fault_plan::none(4), /*seed=*/6, /*keys=*/8, {}, net);
  submit_batch a, b;
  a.fire(w.sim, w.nodes[0], 0, 8, 24);
  b.fire(w.sim, w.nodes[3], 3, 8, 24);
  ASSERT_TRUE(w.sim.run_until_condition(
      [&] { return a.completed == 24 && b.completed == 24; }, kLong));
  ASSERT_TRUE(
      w.sim.run_until_condition([&] { return converged(w, 48); }, kLong));
  EXPECT_TRUE(check_smr_agreement(w.replicas()).linearizable);
  EXPECT_GT(w.sim.metrics().bytes_sent, 0u);
  EXPECT_EQ(w.sim.metrics().dropped_queue_full, 0u);
}

}  // namespace
}  // namespace gqs

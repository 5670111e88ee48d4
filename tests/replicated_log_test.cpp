// Log-level tests of smr_service as a replicated log over Figure 1's GQS:
// where a lone submitter's command lands, passive learners, submission
// order, and contention — multiple submitters race for the same slots,
// under no faults and under every Figure-1 failure pattern, and every
// replica in U_f must end with the identical prefix holding every
// submitted command, applied exactly once.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/factories.hpp"
#include "core/quorum_system.hpp"
#include "sim/time.hpp"
#include "workload/smr_workload.hpp"

namespace gqs {
namespace {

using namespace sim_literals;

constexpr process_id kA = 0, kB = 1;

using command_id = std::pair<process_id, std::uint32_t>;  // (submitter, seq)

/// How often each command occurs in the applied prefix of `r`'s shard-0
/// log.
std::map<command_id, int> applied_commands(const smr_service& r) {
  std::map<command_id, int> seen;
  for (std::uint64_t s = 0; s < r.applied_prefix(0); ++s)
    for (const smr_command& c : *r.log(0)[s])
      ++seen[{c.submitter, c.submit_seq}];
  return seen;
}

/// `r`'s applied shard-0 entries, by value.
std::vector<smr_entry> applied_entries(const smr_service& r) {
  std::vector<smr_entry> out;
  for (std::uint64_t s = 0; s < r.applied_prefix(0); ++s)
    out.push_back(*r.log(0)[s]);
  return out;
}

/// Every member of `submitters` submits `count` writes at `at` (one key,
/// so all of them contend for the same shard log); returns once every
/// submission completed and every submitter applied `total` commands.
void race(smr_world& w, const process_set& submitters, std::uint64_t count,
          std::uint64_t total, sim_time at = 0) {
  std::map<process_id, std::uint64_t> completed;
  for (const process_id p : submitters)
    w.sim.post_after(p, at, [&w, &completed, p, count] {
      for (std::uint64_t i = 0; i < count; ++i)
        w.nodes[p]->submit_write(0, pack_client_value(p, i),
                                 [&completed, p](reg_version) {
                                   ++completed[p];
                                 });
    });
  ASSERT_TRUE(w.sim.run_until_condition(
      [&] {
        for (const process_id p : submitters)
          if (completed[p] != count ||
              w.nodes[p]->counters().commands_applied < total)
            return false;
        return true;
      },
      w.sim.now() + at + 600_s))
      << "submissions did not all apply within the horizon";
}

/// No two replicas disagree on a slot, and every submitter's applied
/// prefix is identical and holds each of the `count` commands of every
/// submitter, applied exactly once.
void verify_exactly_once(const smr_world& w, const process_set& submitters,
                         std::uint32_t count) {
  ASSERT_TRUE(check_smr_agreement(w.replicas()).linearizable);
  const smr_service& first = *w.nodes[submitters.first()];
  for (const process_id reader : submitters) {
    const smr_service& r = *w.nodes[reader];
    EXPECT_EQ(applied_entries(r), applied_entries(first))
        << "replica " << reader;
    EXPECT_EQ(r.counters().commands_applied,
              count * static_cast<std::uint64_t>(submitters.size()))
        << "replica " << reader << " applied a command twice or not at all";
    const auto seen = applied_commands(r);
    for (const process_id p : submitters)
      for (std::uint32_t i = 0; i < count; ++i)
        EXPECT_TRUE(seen.count({p, i}))
            << "command " << i << " of process " << p << " lost from the "
            << "prefix of replica " << reader;
    EXPECT_EQ(r.state_of(0), first.state_of(0)) << "replica " << reader;
  }
}

TEST(ReplicatedLog, SingleSubmitterFillsSlotZero) {
  const auto fig = make_figure1();
  smr_world w(fig.gqs, fault_plan::none(4), /*seed=*/1, /*keys=*/1);
  std::optional<reg_version> version;
  w.sim.post(kA, [&] {
    w.nodes[kA]->submit_write(0, 100, [&](reg_version v) { version = v; });
  });
  ASSERT_TRUE(
      w.sim.run_until_condition([&] { return version.has_value(); }, 600_s));
  EXPECT_EQ(*version, (reg_version{1, kA}));
  ASSERT_FALSE(w.nodes[kA]->log(0).empty());
  ASSERT_TRUE(w.nodes[kA]->log(0)[0]);
  EXPECT_EQ(w.nodes[kA]->log(0)[0]->front().value, 100);
  EXPECT_TRUE(check_smr_agreement(w.replicas()).linearizable);
}

TEST(ReplicatedLog, AllReplicasLearnDecisions) {
  const auto fig = make_figure1();
  smr_world w(fig.gqs, fault_plan::none(4), /*seed=*/2, /*keys=*/1);
  bool done = false;
  w.sim.post(kA, [&] {
    w.nodes[kA]->submit_write(0, 7, [&](reg_version) { done = true; });
  });
  ASSERT_TRUE(w.sim.run_until_condition([&] { return done; }, 600_s));
  // Passive learners converge shortly after.
  ASSERT_TRUE(w.sim.run_until_condition(
      [&] {
        for (const smr_service* r : w.nodes)
          if (r->applied_prefix(0) < 1) return false;
        return true;
      },
      w.sim.now() + 600_s));
  for (const smr_service* r : w.nodes) {
    EXPECT_EQ(r->log(0)[0]->front().value, 7);
    EXPECT_EQ(r->state_of(0).value, 7);
  }
}

TEST(ReplicatedLog, ConcurrentSubmittersGetDistinctSlots) {
  const auto fig = make_figure1();
  smr_world w(fig.gqs, fault_plan::none(4), /*seed=*/3, /*keys=*/1);
  std::map<process_id, reg_version> landed;
  for (process_id p = 0; p < 4; ++p)
    w.sim.post(p, [&, p] {
      w.nodes[p]->submit_write(0, static_cast<reg_value>(p * 10),
                               [&, p](reg_version v) { landed[p] = v; });
    });
  ASSERT_TRUE(w.sim.run_until_condition([&] { return landed.size() == 4; },
                                        1800_s));
  // Writes to one key are numbered by their log position, so distinct
  // versions mean each command took its own position in the log.
  std::set<reg_version> versions;
  for (const auto& [p, v] : landed) {
    EXPECT_EQ(v.writer, p);
    versions.insert(v);
  }
  EXPECT_EQ(versions.size(), 4u) << "each command lands in its own position";
  EXPECT_TRUE(check_smr_agreement(w.replicas()).linearizable);
}

TEST(ReplicatedLog, SequentialSubmissionsKeepOrder) {
  const auto fig = make_figure1();
  smr_world w(fig.gqs, fault_plan::none(4), /*seed=*/4, /*keys=*/1);
  std::vector<reg_version> versions;
  std::function<void(int)> chain = [&](int i) {
    if (i == 4) return;
    w.nodes[kA]->submit_write(0, 200 + i, [&, i](reg_version v) {
      versions.push_back(v);
      chain(i + 1);
    });
  };
  w.sim.post(kA, [&] { chain(0); });
  ASSERT_TRUE(w.sim.run_until_condition(
      [&] { return versions.size() == 4; }, 1800_s));
  for (std::size_t i = 1; i < versions.size(); ++i)
    EXPECT_LT(versions[i - 1], versions[i])
        << "a single submitter's commands apply in submission order";
  EXPECT_EQ(w.nodes[kA]->state_of(0).value, 203);
  EXPECT_EQ(w.nodes[kA]->counters().commands_applied, 4u);
}

TEST(ReplicatedLog, WorksUnderFigure1F1) {
  const auto fig = make_figure1();
  smr_world w(fig.gqs, fault_plan::from_pattern(fig.gqs.fps[0], 0),
              /*seed=*/5, /*keys=*/1);
  std::map<process_id, reg_version> landed;
  for (process_id p : {kA, kB})
    w.sim.post(p, [&, p] {
      w.nodes[p]->submit_write(0, static_cast<reg_value>(p + 1),
                               [&, p](reg_version v) { landed[p] = v; });
    });
  ASSERT_TRUE(w.sim.run_until_condition([&] { return landed.size() == 2; },
                                        1800_s));
  EXPECT_TRUE(check_smr_agreement(w.replicas()).linearizable);
  // Both U_f1 members converge on the same two-command prefix.
  ASSERT_TRUE(w.sim.run_until_condition(
      [&] {
        return w.nodes[kA]->counters().commands_applied >= 2 &&
               w.nodes[kB]->counters().commands_applied >= 2;
      },
      w.sim.now() + 1800_s));
  EXPECT_EQ(applied_entries(*w.nodes[kA]), applied_entries(*w.nodes[kB]));
  EXPECT_EQ(w.nodes[kA]->state_of(0), w.nodes[kB]->state_of(0));
}

TEST(ReplicatedLogContention, AllProcessesRaceWithoutFaults) {
  const auto fig = make_figure1();
  smr_world w(fig.gqs, fault_plan::none(4), /*seed=*/21, /*keys=*/1);
  const process_set all = process_set::full(4);
  race(w, all, 10, 40);
  verify_exactly_once(w, all, 10);
}

TEST(ReplicatedLogContention, UfMembersRaceUnderEveryFigure1Pattern) {
  // Under every pattern some read-quorum member has no channel from the
  // leader (under f1, nothing reaches c at all): Phase 1 is live only
  // because every process pushes its 1B on entering a view.
  const auto fig = make_figure1();
  for (std::size_t i = 0; i < fig.gqs.fps.size(); ++i) {
    SCOPED_TRACE("failure pattern f" + std::to_string(i + 1));
    const auto& f = fig.gqs.fps[i];
    const process_set u_f = compute_u_f(fig.gqs, f);
    ASSERT_GT(u_f.size(), 1) << "pattern leaves no contention to test";
    smr_world w(fig.gqs, fault_plan::from_pattern(f, 0), /*seed=*/31 + i,
                /*keys=*/1);
    race(w, u_f, 10, 10 * static_cast<std::uint64_t>(u_f.size()));
    verify_exactly_once(w, u_f, 10);
  }
}

TEST(ReplicatedLogContention, RepeatedRoundsKeepPrefixExactlyOnce) {
  // Two back-to-back contention rounds, without faults and under every
  // Figure-1 pattern: the second round's commands must extend the first
  // round's prefix without disturbing it.
  const auto fig = make_figure1();
  std::vector<std::pair<std::string, fault_plan>> cases;
  cases.emplace_back("no faults", fault_plan::none(4));
  for (std::size_t i = 0; i < fig.gqs.fps.size(); ++i)
    cases.emplace_back("failure pattern f" + std::to_string(i + 1),
                       fault_plan::from_pattern(fig.gqs.fps[i], 0));
  for (std::size_t c = 0; c < cases.size(); ++c) {
    SCOPED_TRACE(cases[c].first);
    const process_set submitters =
        c == 0 ? process_set::full(4)
               : compute_u_f(fig.gqs, fig.gqs.fps[c - 1]);
    smr_world w(fig.gqs, std::move(cases[c].second), /*seed=*/41 + c,
                /*keys=*/1);
    const auto round = static_cast<std::uint64_t>(submitters.size()) * 5;
    race(w, submitters, 5, round);
    const auto first_round = applied_entries(*w.nodes[submitters.first()]);
    race(w, submitters, 5, 2 * round, /*at=*/30_s);
    verify_exactly_once(w, submitters, 10);
    const auto both_rounds = applied_entries(*w.nodes[submitters.first()]);
    ASSERT_GE(both_rounds.size(), first_round.size());
    EXPECT_TRUE(std::equal(first_round.begin(), first_round.end(),
                           both_rounds.begin()))
        << "the second round rewrote the first round's prefix";
  }
}

}  // namespace
}  // namespace gqs

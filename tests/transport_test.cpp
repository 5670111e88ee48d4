// Unit tests for the component/transport layer: single_host delivery and
// timers, the targeted-send escalation helper, mux_host channel isolation
// and timer routing.
#include "sim/transport.hpp"

#include <gtest/gtest.h>

#include <map>
#include <optional>

#include "sim/time.hpp"

namespace gqs {
namespace {

using namespace sim_literals;

struct note : message {
  int tag;
  explicit note(int t) : tag(t) {}
};

/// Records deliveries/timeouts; can send and arm timers on request.
class probe : public component {
 public:
  struct receipt {
    process_id origin;
    int tag;
  };
  std::vector<receipt> delivered;
  std::vector<int> timeouts;
  bool started = false;

  void start() override { started = true; }
  void deliver(process_id origin, const message_ptr& payload) override {
    if (const auto* n = message_cast<note>(payload))
      delivered.push_back({origin, n->tag});
  }
  void on_timeout(int id) override { timeouts.push_back(id); }

  void say(process_id dest, int tag) {
    unicast(dest, make_message<note>(tag));
  }
  void shout(int tag) { broadcast(make_message<note>(tag)); }
  int arm(sim_time delay) { return set_timer(delay); }
  process_id my_id() const { return id(); }
  process_id n() const { return system_size(); }
};

TEST(SingleHost, RejectsNullComponent) {
  EXPECT_THROW(single_host(nullptr), std::invalid_argument);
}

TEST(SingleHost, StartsAndExposesIdentity) {
  simulation sim(3, network_options{}, fault_plan::none(3), 1);
  std::vector<probe*> probes;
  for (process_id p = 0; p < 3; ++p) {
    auto c = std::make_unique<probe>();
    probes.push_back(c.get());
    sim.set_node(p, std::make_unique<single_host>(std::move(c)));
  }
  sim.start();
  sim.run_until(0);
  for (process_id p = 0; p < 3; ++p) {
    EXPECT_TRUE(probes[p]->started);
    EXPECT_EQ(probes[p]->my_id(), p);
    EXPECT_EQ(probes[p]->n(), 3u);
  }
}

TEST(SingleHost, UnicastAndBroadcastDeliver) {
  simulation sim(3, network_options{}, fault_plan::none(3), 2);
  std::vector<probe*> probes;
  for (process_id p = 0; p < 3; ++p) {
    auto c = std::make_unique<probe>();
    probes.push_back(c.get());
    sim.set_node(p, std::make_unique<single_host>(std::move(c)));
  }
  sim.start();
  sim.run_until(0);
  probes[0]->say(2, 7);
  probes[1]->shout(9);
  sim.run_until(1_s);
  ASSERT_EQ(probes[2]->delivered.size(), 2u);
  EXPECT_EQ(probes[0]->delivered.size(), 1u);  // broadcast only
  EXPECT_EQ(probes[0]->delivered[0].tag, 9);
  EXPECT_EQ(probes[1]->delivered.size(), 1u);  // own broadcast self-delivery
}

TEST(SingleHost, TimerRoutedToComponent) {
  simulation sim(1, network_options{}, fault_plan::none(1), 3);
  auto c = std::make_unique<probe>();
  probe* p = c.get();
  sim.set_node(0, std::make_unique<single_host>(std::move(c)));
  sim.start();
  sim.run_until(0);
  const int id = p->arm(5_ms);
  sim.run_until(1_s);
  ASSERT_EQ(p->timeouts.size(), 1u);
  EXPECT_EQ(p->timeouts[0], id);
}

TEST(SingleHost, TypedAccess) {
  auto c = std::make_unique<probe>();
  probe* raw = c.get();
  single_host host(std::move(c));
  EXPECT_EQ(&host.as<probe>(), raw);
  EXPECT_THROW(host.as<single_host>(), std::bad_cast);
}

TEST(Component, UseBeforeBindThrows) {
  probe lonely;
  EXPECT_THROW(lonely.say(0, 1), std::logic_error);
}

// ---------- send_targeted / escalation_due ----------

/// Records every send and timer in call order; timers fire only when the
/// test says so.
struct recording_transport final : transport {
  struct event {
    enum class kind { multicast, broadcast, timer } what;
    message_ptr msg;  ///< null for timers
    process_set dests;
    int timer = -1;
  };
  std::vector<event> log;
  int next_timer = 0;
  mutable obs_bundle bundle;

  void unicast(process_id, message_ptr) override { ADD_FAILURE(); }
  void broadcast(message_ptr m) override {
    log.push_back({event::kind::broadcast, std::move(m), {}});
  }
  void multicast(process_set dests, message_ptr m) override {
    log.push_back({event::kind::multicast, std::move(m), dests});
  }
  int set_timer(sim_time) override {
    log.push_back({event::kind::timer, nullptr, {}, next_timer});
    return next_timer++;
  }
  process_id self() const override { return 0; }
  process_id size() const override { return 4; }
  sim_time now() const override { return 0; }
  obs_bundle* obs() const override { return &bundle; }

  std::size_t count(event::kind k) const {
    std::size_t c = 0;
    for (const event& e : log) c += e.what == k;
    return c;
  }
};

/// Sends targeted rounds whose pending wire the test controls, and routes
/// every timeout through escalation_due.
class targeter : public component {
 public:
  message_ptr pending;  ///< what a round reports when its timer fires
  mutable std::vector<std::uint64_t> asked;  ///< rounds asked at fire time
  std::uint64_t escalations = 0;
  std::vector<int> foreign;  ///< timers escalation_due did not claim

  void deliver(process_id, const message_ptr&) override {}
  void on_timeout(int timer_id) override {
    if (!escalation_due(timer_id, escalations, "t.escalate", "t"))
      foreign.push_back(timer_id);
  }
  message_ptr pending_wire(std::uint64_t round) const override {
    asked.push_back(round);
    return pending;
  }
  void send(message_ptr wire, sim_time timeout, std::uint64_t round = 7) {
    send_targeted(process_set{1, 2}, std::move(wire), timeout, round);
  }
  int arm(sim_time delay) { return set_timer(delay); }
};

TEST(SendTargeted, MulticastsBeforeArmingOneTimer) {
  recording_transport tr;
  targeter t;
  t.bind(tr);
  const message_ptr wire = make_message<note>(1);
  t.send(wire, 40_ms);
  ASSERT_EQ(tr.log.size(), 2u);
  EXPECT_EQ(tr.log[0].what, recording_transport::event::kind::multicast);
  EXPECT_EQ(tr.log[0].msg, wire);
  EXPECT_EQ(tr.log[0].dests, (process_set{1, 2}));
  EXPECT_EQ(tr.log[1].what, recording_transport::event::kind::timer);
}

TEST(SendTargeted, DecidedRoundNeitherBroadcastsNorCounts) {
  recording_transport tr;
  targeter t;
  t.bind(tr);
  t.send(make_message<note>(1), 40_ms);
  t.pending = nullptr;  // the round completed before the timeout
  t.on_timeout(tr.log.back().timer);
  EXPECT_EQ(tr.count(recording_transport::event::kind::broadcast), 0u);
  EXPECT_EQ(t.escalations, 0u);
  EXPECT_TRUE(t.foreign.empty()) << "the timer is still the helper's";
}

TEST(SendTargeted, PendingRoundBroadcastsFireTimeWireOnce) {
  recording_transport tr;
  tr.bundle.tracer.start_recording();
  targeter t;
  t.bind(tr);
  t.send(make_message<note>(1), 40_ms, /*round=*/11);
  const int timer = tr.log.back().timer;
  // The round is re-sent (say, a re-proposal in a later view) before the
  // timer fires: the escalation must carry the wire current at fire time.
  const span_ref round =
      tr.bundle.tracer.begin_span("t.round", "t", 0, {}, 0);
  const message_ptr current = make_message<note>(2);
  stamp_trace_span(current, round);
  t.pending = current;
  t.on_timeout(timer);
  t.on_timeout(timer);  // already consumed: not the helper's any more
  ASSERT_EQ(tr.count(recording_transport::event::kind::broadcast), 1u);
  EXPECT_EQ(tr.log.back().msg, current);
  EXPECT_EQ(t.asked, std::vector<std::uint64_t>{11});
  EXPECT_EQ(t.escalations, 1u);
  EXPECT_EQ(t.foreign, std::vector<int>{timer});
  const span_rec& leaf = tr.bundle.tracer.spans().back();
  EXPECT_EQ(leaf.name, "t.escalate");
  EXPECT_EQ(leaf.parent, round.id);
}

TEST(SendTargeted, ZeroTimeoutArmsNoTimer) {
  recording_transport tr;
  targeter t;
  t.bind(tr);
  t.send(make_message<note>(1), 0);
  EXPECT_EQ(tr.count(recording_transport::event::kind::multicast), 1u);
  EXPECT_EQ(tr.count(recording_transport::event::kind::timer), 0u);
}

TEST(SendTargeted, ForeignTimerIsNotClaimed) {
  recording_transport tr;
  targeter t;
  t.bind(tr);
  t.pending = make_message<note>(1);
  t.send(t.pending, 40_ms);
  const int own = t.arm(5_ms);
  t.on_timeout(own);
  t.on_timeout(999);
  EXPECT_EQ(t.foreign, (std::vector<int>{own, 999}));
  EXPECT_TRUE(t.asked.empty());
  EXPECT_EQ(tr.count(recording_transport::event::kind::broadcast), 0u);
  EXPECT_EQ(t.escalations, 0u);
}

struct mux_world {
  simulation sim;
  std::vector<mux_host*> hosts;
  std::vector<std::vector<probe*>> probes;  // [process][instance]

  mux_world(process_id n, int instances, std::uint64_t seed)
      : sim(n, network_options{}, fault_plan::none(n), seed),
        probes(n) {
    for (process_id p = 0; p < n; ++p) {
      auto host = std::make_unique<mux_host>();
      for (int i = 0; i < instances; ++i)
        probes[p].push_back(&host->emplace_component<probe>());
      hosts.push_back(host.get());
      sim.set_node(p, std::move(host));
    }
    sim.start();
    sim.run_until(0);
  }
};

TEST(MuxHost, AllComponentsStart) {
  mux_world w(2, 3, 4);
  for (auto& per_process : w.probes)
    for (probe* p : per_process) EXPECT_TRUE(p->started);
  EXPECT_EQ(w.hosts[0]->component_count(), 3u);
}

TEST(MuxHost, ChannelsAreIsolated) {
  // Instance k at process 0 talks only to instance k elsewhere.
  mux_world w(3, 2, 5);
  w.probes[0][0]->shout(10);
  w.probes[0][1]->say(2, 20);
  w.sim.run_until(1_s);
  // Instance 0 everywhere got the broadcast; instance 1 did not.
  for (process_id p = 0; p < 3; ++p) {
    ASSERT_EQ(w.probes[p][0]->delivered.size(), 1u) << "proc " << p;
    EXPECT_EQ(w.probes[p][0]->delivered[0].tag, 10);
  }
  EXPECT_TRUE(w.probes[0][1]->delivered.empty());
  EXPECT_TRUE(w.probes[1][1]->delivered.empty());
  ASSERT_EQ(w.probes[2][1]->delivered.size(), 1u);
  EXPECT_EQ(w.probes[2][1]->delivered[0].tag, 20);
}

TEST(MuxHost, TimersRoutedToOwningInstance) {
  mux_world w(1, 3, 6);
  w.probes[0][1]->arm(2_ms);
  w.probes[0][2]->arm(4_ms);
  w.sim.run_until(1_s);
  EXPECT_TRUE(w.probes[0][0]->timeouts.empty());
  EXPECT_EQ(w.probes[0][1]->timeouts.size(), 1u);
  EXPECT_EQ(w.probes[0][2]->timeouts.size(), 1u);
}

TEST(MuxHost, ComponentIdentityMatchesHostProcess) {
  mux_world w(3, 2, 7);
  for (process_id p = 0; p < 3; ++p)
    for (probe* c : w.probes[p]) {
      EXPECT_EQ(c->my_id(), p);
      EXPECT_EQ(c->n(), 3u);
    }
}

TEST(MuxHost, ExtraInstanceAtPeerIgnored) {
  // Process 0 hosts 2 instances, process 1 hosts 1: traffic of instance 1
  // is dropped at process 1 rather than misrouted.
  simulation sim(2, network_options{}, fault_plan::none(2), 8);
  auto host0 = std::make_unique<mux_host>();
  probe* a0 = &host0->emplace_component<probe>();
  probe* a1 = &host0->emplace_component<probe>();
  auto host1 = std::make_unique<mux_host>();
  probe* b0 = &host1->emplace_component<probe>();
  sim.set_node(0, std::move(host0));
  sim.set_node(1, std::move(host1));
  sim.start();
  sim.run_until(0);
  a1->shout(99);  // instance 1: no peer at process 1
  a0->shout(11);
  sim.run_until(1_s);
  ASSERT_EQ(b0->delivered.size(), 1u);
  EXPECT_EQ(b0->delivered[0].tag, 11);
}

TEST(MuxHost, NullComponentRejected) {
  mux_host host;
  EXPECT_THROW(host.add_component(nullptr), std::invalid_argument);
}

// ---------- flat_timer_map (the timer_owner_ container) ----------

TEST(FlatTimerMap, InsertFindTakeErase) {
  flat_timer_map m;
  EXPECT_TRUE(m.empty());
  EXPECT_FALSE(m.find(3).has_value());
  EXPECT_FALSE(m.take(3).has_value());

  m.insert(3, 30);
  m.insert(7, 70);
  m.insert(3, 31);  // overwrite
  EXPECT_EQ(m.size(), 2u);
  EXPECT_EQ(m.find(3), std::optional<int>(31));
  EXPECT_EQ(m.take(3), std::optional<int>(31));
  EXPECT_EQ(m.size(), 1u);
  EXPECT_FALSE(m.find(3).has_value());
  EXPECT_TRUE(m.erase(7));
  EXPECT_FALSE(m.erase(7));
  EXPECT_TRUE(m.empty());
  EXPECT_THROW(m.insert(-1, 0), std::invalid_argument);
}

TEST(FlatTimerMap, SurvivesChurnAndGrowth) {
  // The mux timer pattern at scale: interleaved arm/fire with a moving
  // live window, across several growth steps, checked against a model.
  flat_timer_map m;
  std::map<int, int> model;
  int next_id = 0;
  for (int round = 0; round < 2000; ++round) {
    const int id = next_id++;
    m.insert(id, id % 17);
    model[id] = id % 17;
    if (round % 3 != 0 && !model.empty()) {
      // Fire the oldest live timer (erase via take, like on_timer).
      const auto oldest = model.begin();
      EXPECT_EQ(m.take(oldest->first), std::optional<int>(oldest->second));
      model.erase(oldest);
    }
  }
  EXPECT_EQ(m.size(), model.size());
  for (const auto& [id, owner] : model)
    EXPECT_EQ(m.find(id), std::optional<int>(owner)) << "id " << id;
}

}  // namespace
}  // namespace gqs

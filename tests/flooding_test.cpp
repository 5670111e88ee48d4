#include "sim/flooding.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>

#include "core/factories.hpp"
#include "sim/time.hpp"
#include "workload/topologies.hpp"

namespace gqs {
namespace {

using namespace sim_literals;

struct payload_msg : message {
  int value;
  explicit payload_msg(int v) : value(v) {}
};

class flood_recorder : public flooding_node {
 public:
  struct receipt {
    process_id origin;
    int value;
    sim_time at;
  };
  std::vector<receipt> delivered;

  void on_deliver(process_id origin, const message_ptr& payload) override {
    if (const auto* p = message_cast<payload_msg>(payload))
      delivered.push_back({origin, p->value, now()});
  }

  void send_to(process_id dest, int value) {
    flood_send(dest, make_message<payload_msg>(value));
  }
  void broadcast_value(int value) {
    flood_broadcast(make_message<payload_msg>(value));
  }
};

struct flood_world {
  simulation sim;
  std::vector<flood_recorder*> nodes;

  flood_world(process_id n, fault_plan faults, std::uint64_t seed = 1,
              network_options net = {})
      : sim(n, net, std::move(faults), seed) {
    for (process_id p = 0; p < n; ++p) {
      auto nd = std::make_unique<flood_recorder>();
      nodes.push_back(nd.get());
      sim.set_node(p, std::move(nd));
    }
    sim.start();
    sim.run_until(0);
  }
};

TEST(Flooding, BroadcastReachesEveryoneIncludingSelf) {
  flood_world w(4, fault_plan::none(4));
  w.nodes[0]->broadcast_value(7);
  w.sim.run_until(1_s);
  for (process_id p = 0; p < 4; ++p) {
    ASSERT_EQ(w.nodes[p]->delivered.size(), 1u) << "process " << p;
    EXPECT_EQ(w.nodes[p]->delivered[0].origin, 0u);
    EXPECT_EQ(w.nodes[p]->delivered[0].value, 7);
  }
}

TEST(Flooding, PointToPointDeliversOnlyAtDestination) {
  flood_world w(4, fault_plan::none(4));
  w.nodes[1]->send_to(3, 9);
  w.sim.run_until(1_s);
  for (process_id p = 0; p < 4; ++p) {
    if (p == 3) {
      ASSERT_EQ(w.nodes[p]->delivered.size(), 1u);
      EXPECT_EQ(w.nodes[p]->delivered[0].value, 9);
    } else {
      EXPECT_TRUE(w.nodes[p]->delivered.empty()) << "process " << p;
    }
  }
}

TEST(Flooding, SelfSendDeliversImmediately) {
  flood_world w(3, fault_plan::none(3));
  w.nodes[2]->send_to(2, 5);
  w.sim.run_until_condition([&] { return !w.nodes[2]->delivered.empty(); },
                            1_s);
  ASSERT_EQ(w.nodes[2]->delivered.size(), 1u);
  EXPECT_EQ(w.nodes[2]->delivered[0].at, 0);  // same instant
}

TEST(Flooding, DedupKeepsMessageCountFinite) {
  flood_world w(5, fault_plan::none(5));
  const auto before = w.sim.metrics().messages_sent;
  w.nodes[0]->broadcast_value(1);
  w.sim.run_until(1_s);
  const auto sent = w.sim.metrics().messages_sent - before;
  // Each of the 5 processes forwards the envelope at most once to at most
  // 4 neighbors: hard upper bound 20 transmissions for one broadcast.
  EXPECT_LE(sent, 20u);
  EXPECT_GE(sent, 4u);
  // And exactly one delivery per process.
  for (auto* n : w.nodes) EXPECT_EQ(n->delivered.size(), 1u);
}

TEST(Flooding, RoutesAroundFailedDirectChannel) {
  // Direct channel (0,1) down from the start; flooding must route 0's
  // payload to 1 via 2 (channels (0,2) and (2,1) are up).
  fault_plan faults = fault_plan::none(3);
  faults.disconnect(0, 1, 0);
  flood_world w(3, std::move(faults));
  w.nodes[0]->send_to(1, 11);
  w.sim.run_until(1_s);
  ASSERT_EQ(w.nodes[1]->delivered.size(), 1u);
  EXPECT_EQ(w.nodes[1]->delivered[0].value, 11);
}

TEST(Flooding, MultiHopChainOnly) {
  // Keep only the chain 0→1→2→3; every other channel is down. A broadcast
  // from 0 must still reach 3 in three hops.
  fault_plan faults = fault_plan::none(4);
  for (process_id u = 0; u < 4; ++u)
    for (process_id v = 0; v < 4; ++v) {
      if (u == v) continue;
      const bool chain = (v == u + 1);
      if (!chain) faults.disconnect(u, v, 0);
    }
  flood_world w(4, std::move(faults));
  w.nodes[0]->broadcast_value(3);
  w.sim.run_until(1_s);
  for (process_id p = 0; p < 4; ++p)
    ASSERT_EQ(w.nodes[p]->delivered.size(), 1u) << "process " << p;
  // And nothing flows upstream: a broadcast from 3 reaches only 3.
  w.nodes[3]->broadcast_value(4);
  w.sim.run_until(2_s);
  EXPECT_EQ(w.nodes[3]->delivered.size(), 2u);
  for (process_id p = 0; p < 3; ++p)
    EXPECT_EQ(w.nodes[p]->delivered.size(), 1u) << "process " << p;
}

TEST(Flooding, IsolatedProcessReceivesNothing) {
  // All channels into 2 are down.
  fault_plan faults = fault_plan::none(3);
  faults.disconnect(0, 2, 0);
  faults.disconnect(1, 2, 0);
  flood_world w(3, std::move(faults));
  w.nodes[0]->broadcast_value(8);
  w.sim.run_until(1_s);
  EXPECT_EQ(w.nodes[0]->delivered.size(), 1u);
  EXPECT_EQ(w.nodes[1]->delivered.size(), 1u);
  EXPECT_TRUE(w.nodes[2]->delivered.empty());
  // But 2 can still push *out* (its outgoing channels are fine).
  w.nodes[2]->broadcast_value(9);
  w.sim.run_until(2_s);
  EXPECT_EQ(w.nodes[0]->delivered.size(), 2u);
  EXPECT_EQ(w.nodes[1]->delivered.size(), 2u);
}

TEST(Flooding, Figure1F1Connectivity) {
  // Under f1 of Figure 1 (d crashed; only (c,a), (a,b), (b,a) reliable):
  // a payload pushed by c reaches a and b; nothing reaches c; a and b
  // exchange bidirectionally.
  const auto fig = make_figure1();
  flood_world w(4, fault_plan::from_pattern(fig.gqs.fps[0], 0));
  constexpr process_id a = 0, b = 1, c = 2, d = 3;
  w.nodes[c]->broadcast_value(1);
  w.sim.run_until(1_s);
  auto count = [&](process_id p) { return w.nodes[p]->delivered.size(); };
  EXPECT_EQ(count(a), 1u);
  EXPECT_EQ(count(b), 1u);
  EXPECT_EQ(count(c), 1u);  // self-delivery
  EXPECT_EQ(count(d), 0u);  // crashed

  w.nodes[a]->broadcast_value(2);
  w.nodes[b]->broadcast_value(3);
  w.sim.run_until(2_s);
  EXPECT_EQ(count(a), 3u);
  EXPECT_EQ(count(b), 3u);
  EXPECT_EQ(count(c), 1u);  // all channels into c failed
}

TEST(Flooding, CrashedOriginStopsFlooding) {
  fault_plan faults = fault_plan::none(3);
  faults.crash(0, 0);
  flood_world w(3, std::move(faults));
  w.nodes[0]->broadcast_value(1);  // invoked, but sends are suppressed
  w.sim.run_until(1_s);
  EXPECT_TRUE(w.nodes[1]->delivered.empty());
  EXPECT_TRUE(w.nodes[2]->delivered.empty());
}

TEST(Flooding, ManyMessagesAllDeliveredOnce) {
  flood_world w(4, fault_plan::none(4), 42);
  for (int i = 0; i < 50; ++i)
    w.nodes[static_cast<process_id>(i % 4)]->broadcast_value(i);
  w.sim.run_until(10_s);
  for (auto* n : w.nodes) {
    ASSERT_EQ(n->delivered.size(), 50u);
    // Values 0..49 each exactly once.
    std::vector<bool> seen(50, false);
    for (const auto& r : n->delivered) {
      ASSERT_GE(r.value, 0);
      ASSERT_LT(r.value, 50);
      EXPECT_FALSE(seen[r.value]) << "duplicate delivery of " << r.value;
      seen[r.value] = true;
    }
  }
  // With nothing lost, every dedup stream is gap-free: the high-water
  // marks cover everything and no out-of-order seqs stay buffered.
  for (auto* n : w.nodes) EXPECT_EQ(n->dedup_backlog(), 0u);
}

TEST(SequenceFilter, MarksInOrder) {
  sequence_filter f;
  for (std::uint64_t s = 0; s < 100; ++s) {
    EXPECT_TRUE(f.mark(s));
    EXPECT_FALSE(f.mark(s));  // duplicate
  }
  EXPECT_EQ(f.low(), 100u);
  EXPECT_EQ(f.backlog(), 0u);
}

TEST(SequenceFilter, OutOfOrderBuffersThenDrains) {
  sequence_filter f;
  EXPECT_TRUE(f.mark(3));
  EXPECT_TRUE(f.mark(1));
  EXPECT_FALSE(f.mark(3));
  EXPECT_EQ(f.low(), 0u);
  EXPECT_EQ(f.backlog(), 2u);
  EXPECT_TRUE(f.mark(0));  // fills the gap: 0,1 drain; 3 stays buffered
  EXPECT_EQ(f.low(), 2u);
  EXPECT_EQ(f.backlog(), 1u);
  EXPECT_TRUE(f.mark(2));  // drains the rest
  EXPECT_EQ(f.low(), 4u);
  EXPECT_EQ(f.backlog(), 0u);
  EXPECT_FALSE(f.mark(1));  // below the high-water mark
  EXPECT_TRUE(f.seen(3));
  EXPECT_FALSE(f.seen(4));
}

TEST(SequenceFilter, BacklogBoundedByReordering) {
  // Deliver 10k seqs in windows of 16 shuffled entries: the backlog never
  // exceeds the window size, regardless of stream length.
  sequence_filter f;
  std::mt19937_64 rng(3);
  std::vector<std::uint64_t> window;
  std::size_t max_backlog = 0;
  for (std::uint64_t base = 0; base < 10000; base += 16) {
    window.clear();
    for (std::uint64_t s = base; s < base + 16; ++s) window.push_back(s);
    std::shuffle(window.begin(), window.end(), rng);
    for (std::uint64_t s : window) {
      EXPECT_TRUE(f.mark(s));
      max_backlog = std::max(max_backlog, f.backlog());
    }
  }
  EXPECT_EQ(f.low(), 10000u);
  EXPECT_EQ(f.backlog(), 0u);
  EXPECT_LE(max_backlog, 16u);
}

TEST(Flooding, EarlyDropSkipsDownedChannels) {
  // With channel (0,1) down from the start, flooding no longer *attempts*
  // the doomed direct transmission: no drop_channel events appear and the
  // message count shrinks, while delivery (via 2) is unaffected.
  fault_plan faults = fault_plan::none(3);
  faults.disconnect(0, 1, 0);
  flood_world w(3, std::move(faults));
  w.nodes[0]->send_to(1, 11);
  w.sim.run_until(1_s);
  ASSERT_EQ(w.nodes[1]->delivered.size(), 1u);
  EXPECT_EQ(w.sim.metrics().dropped_disconnected, 0u);
}

TEST(Flooding, EarlyDropUnreachableDestination) {
  // 2 is unreachable from 0 (all channels into 2 are down): a flood_send
  // to it dies at the source — nothing is ever transmitted.
  fault_plan faults = fault_plan::none(3);
  faults.disconnect(0, 2, 0);
  faults.disconnect(1, 2, 0);
  flood_world w(3, std::move(faults));
  w.nodes[0]->send_to(2, 5);
  w.sim.run_until(1_s);
  EXPECT_TRUE(w.nodes[2]->delivered.empty());
  EXPECT_EQ(w.sim.metrics().messages_sent, 0u);
}

TEST(Flooding, EarlyDropConsumesNoSequenceNumber) {
  // Regression: an early-dropped origination must not burn a seq — a seq
  // that is never flooded would be a permanent gap in every peer's dedup
  // stream, making all later envelopes from that origin buffer forever.
  fault_plan faults = fault_plan::none(3);
  faults.disconnect(0, 2, 0);
  faults.disconnect(1, 2, 0);
  flood_world w(3, std::move(faults));
  w.nodes[0]->send_to(2, 5);  // early-dropped at the source
  for (int i = 0; i < 40; ++i) w.nodes[0]->broadcast_value(i);
  w.sim.run_until(10_s);
  EXPECT_EQ(w.nodes[1]->delivered.size(), 40u);
  for (auto* n : w.nodes)
    EXPECT_EQ(n->dedup_backlog(), 0u) << "gap pinned the dedup buffer";
}

// An n-process star around hub 0: every leaf-to-leaf channel is down from
// the start, so leaves talk to each other only through the hub.
fault_plan star_plan(process_id n) {
  fault_plan faults = fault_plan::none(n);
  for (process_id u = 1; u < n; ++u)
    for (process_id v = 1; v < n; ++v)
      if (u != v) faults.disconnect(u, v, 0);
  return faults;
}

TEST(Flooding, StarRelaysUnicastsOnlyTowardTheirDestination) {
  flood_world w(8, star_plan(8));
  // Physical messages one action costs once the network is quiet again.
  auto cost = [&](auto&& action) {
    const auto before = w.sim.metrics().messages_sent;
    action();
    w.sim.run_until(w.sim.now() + 1_s);
    return w.sim.metrics().messages_sent - before;
  };
  // Leaf to leaf: one hop in, one hop out. The hub does not fan the
  // unicast out to the other leaves, and the destination relays nothing.
  EXPECT_EQ(cost([&] { w.nodes[3]->send_to(5, 1); }), 2u);
  EXPECT_EQ(cost([&] { w.nodes[3]->send_to(0, 2); }), 1u);  // leaf to hub
  EXPECT_EQ(cost([&] { w.nodes[0]->send_to(6, 3); }), 1u);  // hub to leaf
  EXPECT_EQ(cost([&] { w.nodes[4]->send_to(4, 4); }), 0u);  // to self
  // Broadcasts still flood: leaf to hub, hub to the six other leaves.
  EXPECT_EQ(cost([&] { w.nodes[3]->broadcast_value(5); }), 7u);

  auto values = [&](process_id p) {
    std::vector<int> got;
    for (const auto& r : w.nodes[p]->delivered) got.push_back(r.value);
    return got;
  };
  EXPECT_EQ(values(0), (std::vector<int>{2, 5}));
  EXPECT_EQ(values(3), (std::vector<int>{5}));
  EXPECT_EQ(values(4), (std::vector<int>{4, 5}));
  EXPECT_EQ(values(5), (std::vector<int>{1, 5}));
  EXPECT_EQ(values(6), (std::vector<int>{3, 5}));
  for (process_id p : {1u, 2u, 7u}) EXPECT_EQ(values(p), (std::vector<int>{5}));
}

TEST(Flooding, StarUnicastStreamsStayGapFree) {
  // Unicasts that only the hub and their destination see must not take
  // numbers from the broadcast stream the other leaves dedup: interleave
  // both kinds from one leaf and every dedup filter must end gap-free.
  flood_world w(8, star_plan(8));
  for (int i = 0; i < 40; ++i) {
    if (i % 2 == 0) {
      w.nodes[3]->send_to(static_cast<process_id>((i / 2) % 8), i);
    } else {
      w.nodes[3]->broadcast_value(i);
    }
  }
  w.sim.run_until(10_s);
  for (process_id p = 0; p < 8; ++p) {
    std::size_t expected = 20;  // every broadcast
    for (int i = 0; i < 40; i += 2)
      if (static_cast<process_id>((i / 2) % 8) == p) ++expected;
    EXPECT_EQ(w.nodes[p]->delivered.size(), expected) << "process " << p;
    EXPECT_EQ(w.nodes[p]->dedup_backlog(), 0u) << "process " << p;
  }
}

// The corpus families the relay property runs over: every kind except the
// clique (n <= 64), whose residuals leave nothing to prune.
std::vector<scenario_family> relay_corpus() {
  std::vector<scenario_family> families;
  for (scenario_family& fam : topology_corpus(64))
    if (fam.params.topology.kind != topology_kind::clique)
      families.push_back(std::move(fam));
  return families;
}

struct unicast_sent {
  process_id origin;
  process_id dest;
  bool must_arrive;  // sent in the last epoch to a reachable destination
};

// Checks every receipt in `w` against `sent` (values are indexes into it):
// a unicast arrives only at its destination, from its origin, at most once.
// Returns how often each unicast arrived.
std::vector<int> unicast_arrivals(const flood_world& w,
                                  const std::vector<unicast_sent>& sent) {
  std::vector<int> arrivals(sent.size(), 0);
  for (process_id p = 0; p < w.nodes.size(); ++p)
    for (const auto& r : w.nodes[p]->delivered) {
      if (r.value < 0) continue;  // a broadcast
      const unicast_sent& s = sent.at(static_cast<std::size_t>(r.value));
      EXPECT_EQ(p, s.dest) << "unicast " << r.value << " leaked";
      EXPECT_EQ(r.origin, s.origin) << "unicast " << r.value;
      ++arrivals[static_cast<std::size_t>(r.value)];
    }
  return arrivals;
}

TEST(FloodingProperty, UnicastsArriveExactlyWhereReachableUnderInitialFaults) {
  std::uint64_t seed = 1;
  for (const scenario_family& fam : relay_corpus()) {
    SCOPED_TRACE(fam.name);
    std::mt19937_64 rng(++seed);
    const digraph net = make_topology(fam.params.topology);
    const failure_pattern f =
        scenario_failure_pattern(net, fam.params, rng);
    const process_id n = net.vertex_count();
    flood_world w(n, fault_plan::from_pattern(f, 0), seed);
    const connectivity_epochs& ep = w.sim.epochs();

    // Three unicasts and one broadcast (negative value) per live process,
    // interleaved; destinations are uniform, self and unreachable included.
    std::vector<unicast_sent> sent;
    for (process_id o = 0; o < n; ++o) {
      if (!ep.alive(0, o)) continue;
      for (int k = 0; k < 3; ++k) {
        const auto d = static_cast<process_id>(rng() % n);
        sent.push_back({o, d, ep.reachable(0, o).contains(d)});
        w.nodes[o]->send_to(d, static_cast<int>(sent.size() - 1));
        if (k == 1) w.nodes[o]->broadcast_value(-1 - static_cast<int>(o));
      }
    }
    w.sim.run_until(60_s);
    ASSERT_TRUE(w.sim.idle_before(3600_s));

    const std::vector<int> arrivals = unicast_arrivals(w, sent);
    for (std::size_t i = 0; i < sent.size(); ++i)
      EXPECT_EQ(arrivals[i], sent[i].must_arrive ? 1 : 0)
          << "unicast " << i << ": " << sent[i].origin << " -> "
          << sent[i].dest;
    for (process_id p = 0; p < n; ++p) {
      std::size_t broadcasts = 0;
      for (const auto& r : w.nodes[p]->delivered) broadcasts += r.value < 0;
      std::size_t expected = 0;
      for (process_id o = 0; o < n; ++o)
        expected += ep.alive(0, o) && ep.reachable(0, o).contains(p);
      EXPECT_EQ(broadcasts, expected) << "process " << p;
      EXPECT_EQ(w.nodes[p]->dedup_backlog(), 0u) << "process " << p;
    }
  }
}

TEST(FloodingProperty, MidRunCutsNeverDuplicateAndSpareLateUnicasts) {
  std::uint64_t seed = 100;
  std::size_t late = 0;  // unicasts that must arrive, across all families
  for (const scenario_family& fam : relay_corpus()) {
    SCOPED_TRACE(fam.name);
    std::mt19937_64 rng(++seed);
    const digraph net = make_topology(fam.params.topology);
    const failure_pattern f =
        scenario_failure_pattern(net, fam.params, rng);
    const process_id n = net.vertex_count();

    // Monotone cuts on top of the pattern: about one surviving channel in
    // eight goes down, and one correct process crashes, at seeded instants
    // inside the first 60 ms (while traffic is in flight).
    fault_plan plan = fault_plan::from_pattern(f, 0);
    const digraph residual = connectivity_epochs(plan).residual(0);
    std::uniform_int_distribution<sim_time> when(1_ms, 60_ms);
    for (const edge& e : residual.edges())
      if (rng() % 8 == 0) plan.disconnect(e.from, e.to, when(rng));
    const auto victim = static_cast<process_id>(rng() % n);
    const sim_time crash_at = when(rng);
    if (!plan.crash_time(victim)) plan.crash(victim, crash_at);

    flood_world w(n, plan, seed);
    const connectivity_epochs& ep = w.sim.epochs();
    const std::size_t last = ep.epoch_count() - 1;

    // Four unicasts per process at seeded instants across 0..120 ms, so
    // some are sent before, during and after the cuts.
    struct planned {
      sim_time at;
      process_id origin;
      process_id dest;
    };
    std::vector<planned> script;
    std::uniform_int_distribution<sim_time> at(0, 120_ms);
    for (process_id o = 0; o < n; ++o)
      for (int k = 0; k < 4; ++k)
        script.push_back({at(rng), o, static_cast<process_id>(rng() % n)});
    std::sort(script.begin(), script.end(),
              [](const planned& a, const planned& b) { return a.at < b.at; });

    std::vector<unicast_sent> sent;
    for (const planned& s : script) {
      w.sim.run_until(s.at);
      if (!w.sim.alive(s.origin)) continue;
      const std::size_t e = w.sim.current_epoch();
      const bool must = e == last && ep.reachable(e, s.origin).contains(s.dest);
      late += must;
      sent.push_back({s.origin, s.dest, must});
      w.nodes[s.origin]->send_to(s.dest, static_cast<int>(sent.size() - 1));
    }
    w.sim.run_until(60_s);
    ASSERT_TRUE(w.sim.idle_before(3600_s));

    const std::vector<int> arrivals = unicast_arrivals(w, sent);
    for (std::size_t i = 0; i < sent.size(); ++i) {
      EXPECT_LE(arrivals[i], 1) << "unicast " << i << " delivered twice";
      if (sent[i].must_arrive) {
        EXPECT_EQ(arrivals[i], 1)
            << "unicast " << i << ": " << sent[i].origin << " -> "
            << sent[i].dest << " sent after the last cut";
      }
    }
  }
  EXPECT_GT(late, 0u);
}

}  // namespace
}  // namespace gqs

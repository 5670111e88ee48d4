#include "workloads.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <functional>
#include <memory>
#include <type_traits>
#include <utility>

#include "core/factories.hpp"
#include "core/quorum_system.hpp"
#include "history_completion.hpp"
#include "lincheck/history_checker.hpp"
#include "register/keyed_register.hpp"
#include "smr/smr_service.hpp"
#include "strategy/planner.hpp"
#include "strategy/shard_plan.hpp"
#include "workload/clients.hpp"
#include "workload/smr_workload.hpp"
#include "workload/topologies.hpp"
#include "workload/worlds.hpp"

namespace perfbench {
namespace {

using namespace gqs;
using host_clock = std::chrono::steady_clock;

/// Simulated-time budget of one drive loop; a pass that has not finished
/// its counted ops by then fails.
constexpr sim_time kHorizon = 100000L * 1000 * 1000;  // 100,000 s

/// Seconds since t, then t = now.
double lap(host_clock::time_point& t) {
  const auto now = host_clock::now();
  const double s = std::chrono::duration<double>(now - t).count();
  t = now;
  return s;
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t x = seed ^ (salt * 0x9e3779b97f4a7c15ull);
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Consolidates the free chunks the previous world left behind. glibc
/// defers that work to whichever later allocation first asks for a
/// large-bin chunk, so without this a world's set-up time would include a
/// seed-dependent share of the previous world's teardown. One large-bin
/// request does it here instead; unlike malloc_trim, it hands no memory
/// back to the kernel for the next world to fault in again.
void settle_heap() {
  void* volatile block = std::malloc(64 * 1024);
  std::free(block);
}

/// Everything a pass needs besides the service type's own code.
template <class S>
struct recipe {
  process_id n = 0;
  service_key keys = 0;
  network_options net;
  fault_plan faults{1};
  client_workload_options schedule;
  /// Clients whose ops must all complete (U_f under a failure pattern).
  process_set counted;
  std::function<std::unique_ptr<S>()> make_service;
};

recipe<smr_service> smr_n8_recipe(const workload_config& c, pass_result& r,
                                  host_clock::time_point& t) {
  recipe<smr_service> rc;
  const auto system = threshold_quorum_system(8, 2);
  r.core_s += lap(t);
  shard_plan_options po;
  po.shards = 4;
  po.selector_seed = derive_seed(c.seed, 1);
  po.planner.read_ratio = 0.5;
  const shard_plan plan = plan_shards(system, po);
  smr_options o;
  o.shards = po.shards;
  o.shard_selectors = plan.selectors;
  o.leaders = plan.leaders;
  r.plan_s += lap(t);
  rc.n = system.system_size();
  rc.keys = 64;
  rc.net = consensus_world::partial_sync();  // GST = 0
  rc.net.channel.bytes_per_us = 125;         // about 1 Gbit/s per link
  rc.faults = fault_plan::none(rc.n);
  rc.schedule.zipf_theta = 0.99;
  rc.schedule.read_ratio = 0.5;
  rc.schedule.inflight_window = 8;
  rc.make_service = [config = quorum_config::of(system), o, keys = rc.keys] {
    return std::make_unique<smr_service>(keys, config, o);
  };
  return rc;
}

recipe<keyed_register_node> grid64_star_recipe(const workload_config& c,
                                               pass_result& r,
                                               host_clock::time_point& t) {
  recipe<keyed_register_node> rc;
  const auto system = grid_quorum_system(64);
  r.core_s += lap(t);
  planner_options po;
  po.read_ratio = 0.9;
  service_options so;
  so.selector = std::make_shared<const quorum_selector>(
      plan_optimal(system, po).strategy, derive_seed(c.seed, 2));
  r.plan_s += lap(t);
  rc.n = system.system_size();
  rc.keys = 1024;
  // The physical network is a star: every channel outside it is down from
  // t = 0, so flooding relays through the hub.
  const digraph star = make_topology({topology_kind::star, rc.n});
  rc.faults = fault_plan(rc.n);
  for (process_id u = 0; u < rc.n; ++u)
    for (process_id v = 0; v < rc.n; ++v)
      if (u != v && !star.has_edge(u, v)) rc.faults.disconnect(u, v, 0);
  rc.schedule.zipf_theta = 0;  // uniform
  rc.schedule.read_ratio = 0.9;
  rc.schedule.inflight_window = 4;
  rc.make_service = [config = quorum_config::of(system), so, keys = rc.keys] {
    return std::make_unique<keyed_register_node>(keys, config, so);
  };
  return rc;
}

recipe<keyed_register_node> fig1_f1_recipe(pass_result& r,
                                           host_clock::time_point& t) {
  recipe<keyed_register_node> rc;
  const auto system = make_figure1().gqs;
  const failure_pattern& f1 = system.fps[0];
  rc.counted = compute_u_f(system, f1);
  r.core_s += lap(t);  // no planning: broadcast access
  rc.n = system.system_size();
  rc.keys = 256;
  // Cut in after warm-up: every client has completed ops by then.
  constexpr sim_time kFaultAt = 200000;  // 200 ms
  rc.faults = fault_plan::from_pattern(f1, kFaultAt);
  rc.schedule.zipf_theta = 0.99;
  rc.schedule.read_ratio = 0.5;
  rc.schedule.inflight_window = 4;
  rc.make_service = [config = quorum_config::of(system), keys = rc.keys] {
    return std::make_unique<keyed_register_node>(keys, config,
                                                 service_options{});
  };
  return rc;
}

// ---- per-service hooks ----

template <class S>
struct service_traits;

template <>
struct service_traits<keyed_register_node> {
  using adapter = keyed_node_adapter<keyed_register_node>;
  static constexpr layer service_layer = layer::quorum;

  static void add(service_totals& t, const keyed_register_node& s) {
    const service_counters& c = s.counters();
    t.ops_started += c.ops_started;
    t.flushes += c.flushes;
    t.probes += c.probes_sent;
    t.set_batches += c.set_batches_sent;
    t.set_entries += c.set_entries_sent;
    t.gossip_entries += c.gossip_entries_sent;
    t.nacks += c.nacks_sent;
    t.repairs += c.repairs_sent;
    t.targeted += c.targeted_probes + c.targeted_set_batches;
    t.quorum_escalations += c.escalations;
  }

  static void digest(std::vector<std::uint64_t>& d,
                     const keyed_register_node& s) {
    const service_counters& c = s.counters();
    d.insert(d.end(),
             {c.ops_started, c.ops_completed, c.flushes, c.probes_sent,
              c.set_batches_sent, c.set_entries_sent, c.gossip_batches_sent,
              c.gossip_entries_sent, c.nacks_sent, c.repairs_sent,
              c.targeted_probes, c.targeted_set_batches, c.escalations,
              s.engine_clock()});
    for (service_key k = 0; k < s.key_count(); ++k) {
      const auto& st = s.local_state(k);
      d.insert(d.end(), {static_cast<std::uint64_t>(st.value),
                         st.version.number, st.version.writer,
                         s.key_clock(k)});
    }
  }
};

template <>
struct service_traits<smr_service> {
  using adapter = smr_adapter;
  static constexpr layer service_layer = layer::smr;

  static void add(service_totals& t, const smr_service& s) {
    const smr_counters& c = s.counters();
    t.commands_submitted += c.commands_submitted;
    t.entries_proposed += c.entries_proposed;
    t.phase1_rounds += c.phase1_rounds;
    t.view_changes += c.view_changes;
    t.smr_escalations += c.escalations;
    t.retries += c.retries;
    t.heartbeats += c.heartbeats;
  }

  static void digest(std::vector<std::uint64_t>& d, const smr_service& s) {
    const smr_counters& c = s.counters();
    d.insert(d.end(),
             {c.commands_submitted, c.commands_forwarded, c.commands_applied,
              c.commands_deduped, c.entries_proposed, c.entries_committed,
              c.phase1_rounds, c.targeted_phase1, c.targeted_phase2,
              c.escalations, c.view_changes, c.heartbeats, c.retries});
    for (std::size_t sh = 0; sh < s.shard_count(); ++sh)
      d.insert(d.end(), {s.view_of(sh), s.applied_prefix(sh)});
    for (service_key k = 0; k < s.key_count(); ++k) {
      const auto& st = s.state_of(k);
      d.insert(d.end(), {static_cast<std::uint64_t>(st.value),
                         st.version.number, st.version.writer});
    }
  }
};

/// The repository's adapter with a timed submit and a timed completion
/// callback (the workload driver's own work).
template <class Inner>
struct traced_adapter {
  Inner inner;
  layer_profiler* prof;
  layer service;

  void write(process_id p, service_key key, reg_value x,
             std::function<void(reg_version)> done) {
    scoped_frame f(*prof, service);
    inner.write(p, key, x, [prof = prof, done = std::move(done)](
                               reg_version v) {
      scoped_frame w(*prof, layer::workload);
      done(v);
    });
  }
  void read(process_id p, service_key key,
            std::function<void(reg_value, reg_version)> done) {
    scoped_frame f(*prof, service);
    inner.read(p, key, [prof = prof, done = std::move(done)](
                           reg_value v, reg_version ver) {
      scoped_frame w(*prof, layer::workload);
      done(v, ver);
    });
  }
};

void digest_metrics(std::vector<std::uint64_t>& d, const sim_metrics& m) {
  d.insert(d.end(),
           {m.messages_sent, m.messages_delivered, m.dropped_disconnected,
            m.dropped_receiver_crashed, m.timers_fired, m.events_processed,
            m.bytes_sent, m.bytes_delivered, m.dropped_queue_full,
            m.max_link_queue_depth});
}

void digest_history(std::vector<std::uint64_t>& d,
                    const std::vector<keyed_register_op>& history) {
  for (const keyed_register_op& rec : history) {
    const register_op& op = rec.op;
    d.insert(d.end(),
             {rec.key, static_cast<std::uint64_t>(op.kind), op.proc,
              static_cast<std::uint64_t>(op.value),
              static_cast<std::uint64_t>(op.invoked_at),
              static_cast<std::uint64_t>(op.returned_at.value_or(-1)),
              op.version.number, op.version.writer});
  }
}

/// SMR replicas have applied every completed command and agree on every
/// shard's applied prefix.
bool smr_drained(const std::vector<smr_service*>& replicas,
                 std::uint64_t commands) {
  for (std::size_t sh = 0; sh < replicas.front()->shard_count(); ++sh)
    for (const smr_service* s : replicas)
      if (s->applied_prefix(sh) != replicas.front()->applied_prefix(sh))
        return false;
  for (const smr_service* s : replicas)
    if (s->counters().commands_applied < commands) return false;
  return true;
}

/// Replica agreement and convergence; empty when both hold.
std::string check_smr(const std::vector<smr_service*>& replicas) {
  const auto agreement = check_smr_agreement(
      std::vector<const smr_service*>(replicas.begin(), replicas.end()));
  if (!agreement.linearizable) return "SMR agreement: " + agreement.reason;
  for (service_key k = 0; k < replicas.front()->key_count(); ++k)
    for (const smr_service* s : replicas)
      if (s->state_of(k).version != replicas.front()->state_of(k).version ||
          s->state_of(k).value != replicas.front()->state_of(k).value)
        return "SMR replicas diverge on key " + std::to_string(k);
  return {};
}

/// Runs `check` at least once and until kMinCheckSeconds have passed;
/// returns the mean seconds per run (short checks are timed over many).
template <class F>
double time_repeated(F check) {
  constexpr double kMinCheckSeconds = 0.05;
  const auto t0 = host_clock::now();
  int reps = 0;
  double total = 0;
  do {
    check();
    ++reps;
    total = std::chrono::duration<double>(host_clock::now() - t0).count();
  } while (total < kMinCheckSeconds);
  return total / reps;
}

/// Drives one world to the end and checks it, accumulating into r.
template <class S, class Adapter>
bool drive(recipe<S>& rc, simulation& sim, const std::vector<S*>& services,
           Adapter adapter, tracer* tr, pass_result& r,
           host_clock::time_point t0) {
  auto t = host_clock::now();
  workload_driver<Adapter> driver(sim, std::move(adapter), rc.schedule);
  r.schedule_s += lap(t);
  std::uint64_t counted_done = 0;
  const std::uint64_t counted_total =
      rc.schedule.ops_per_process * rc.counted.size();
  driver.on_complete_op = [&](const keyed_register_op& rec, std::size_t) {
    if (rc.counted.contains(rec.op.proc)) ++counted_done;
  };
  r.setup_s += std::chrono::duration<double>(host_clock::now() - t0).count();
  driver.launch();

  const auto finished = [&] { return counted_done == counted_total; };
  bool done = false;
  if (tr) {
    const auto before = tr->profiler().self_seconds();
    t = host_clock::now();
    {
      scoped_frame f(tr->profiler(), layer::sim);
      done = sim.run_until_condition(finished, kHorizon);
    }
    r.drive_s += lap(t);
    const auto after = tr->profiler().self_seconds();
    for (std::size_t l = 0; l < kLayers; ++l) r.self_s[l] += after[l] - before[l];
  } else {
    t = host_clock::now();
    done = sim.run_until_condition(finished, kHorizon);
    r.drive_s += lap(t);
  }
  r.drive_metrics += sim.metrics();
  digest_metrics(r.digest, sim.metrics());
  r.channel_model = rc.net.channel.bytes_per_us > 0;
  r.attempted += driver.issued();
  r.completed += driver.completed();
  const auto issued_by = driver.per_process_ops();
  for (process_id p : rc.counted) r.counted_attempted += issued_by[p];
  r.counted_completed += counted_done;
  if (!done) {
    r.why = "counted clients did not finish within the simulated horizon";
    return false;
  }

  // Simulated results.
  const auto latencies = driver.latencies_us();
  r.latencies_us.insert(r.latencies_us.end(), latencies.begin(),
                        latencies.end());
  const auto tenth = static_cast<std::ptrdiff_t>(latencies.size() / 10);
  r.first_tenth_us.insert(r.first_tenth_us.end(), latencies.begin(),
                          latencies.begin() + tenth);
  r.last_tenth_us.insert(r.last_tenth_us.end(), latencies.end() - tenth,
                         latencies.end());
  std::vector<sim_time> completions;
  for (const keyed_register_op& rec : driver.history())
    if (rec.op.complete()) completions.push_back(*rec.op.returned_at);
  std::sort(completions.begin(), completions.end());
  sim_time prev = 0;  // ops launch at t = 0
  for (sim_time at : completions) {
    r.stall = std::max(r.stall, at - prev);
    prev = at;
  }
  r.sim_span += prev;

  // Output checks. SMR commit announcements first drain, so every replica
  // holds the whole log.
  if constexpr (std::is_same_v<S, smr_service>) {
    if (!sim.run_until_condition(
            [&] { return smr_drained(services, driver.completed()); },
            sim.now() + kHorizon)) {
      r.why = "SMR replicas did not converge";
      return false;
    }
  }
  completed_history ch;
  lincheck_result lin;
  keyed_check_options ko;
  ko.threads = 1;
  r.check_s += time_repeated([&] {
    ch = complete_pending_writes(driver.history());
    lin = check_keyed_history(ch.ops, rc.keys, ko);
  });
  r.completed_pending_writes += ch.completed_writes;
  if (!lin.linearizable) {
    r.why = "per-key linearizability: " + lin.reason;
    return false;
  }
  if constexpr (std::is_same_v<S, smr_service>) {
    std::string why;
    r.agreement_s += time_repeated([&] { why = check_smr(services); });
    if (!why.empty()) {
      r.why = why;
      return false;
    }
  }

  for (const S* s : services) service_traits<S>::add(r.totals, *s);
  digest_metrics(r.digest, sim.metrics());
  digest_history(r.digest, driver.history());
  for (const S* s : services) service_traits<S>::digest(r.digest, *s);
  return true;
}

template <class S>
bool run_world(const workload_config& c, recipe<S> rc, tracer* tr,
               pass_result& r, host_clock::time_point t0) {
  auto t = host_clock::now();
  rc.schedule.keys = rc.keys;
  rc.schedule.ops_per_process = c.ops_per_process;
  rc.schedule.seed = c.seed;
  if (rc.counted.empty()) rc.counted = process_set::full(rc.n);
  constexpr layer service_layer = service_traits<S>::service_layer;

  simulation sim(rc.n, rc.net, rc.faults, c.seed);
  std::vector<S*> services;
  for (process_id p = 0; p < rc.n; ++p) {
    std::unique_ptr<S> svc = rc.make_service();
    services.push_back(svc.get());
    if (tr) {
      auto host = std::make_unique<single_host>(
          std::make_unique<traced_component<S>>(std::move(svc), *tr,
                                                service_layer));
      sim.set_node(p, std::make_unique<traced_node>(std::move(host), *tr));
    } else {
      sim.set_node(p, std::make_unique<single_host>(std::move(svc)));
    }
  }
  sim.start();
  sim.run_until(0);
  r.world_s += lap(t);

  using inner_adapter = typename service_traits<S>::adapter;
  inner_adapter inner{services};
  if (tr)
    return drive(rc, sim, services,
                 traced_adapter<inner_adapter>{inner, &tr->profiler(),
                                               service_layer},
                 tr, r, t0);
  return drive(rc, sim, services, inner, nullptr, r, t0);
}

/// Builds world `c` (timing the core, strategy and fault-plan phases) and
/// runs it.
bool run_world(const workload_config& c, tracer* tr, pass_result& r) {
  const auto t0 = host_clock::now();
  auto t = t0;
  switch (c.kind) {
    case workload_kind::smr_n8: {
      auto rc = smr_n8_recipe(c, r, t);
      r.world_s += lap(t);
      return run_world(c, std::move(rc), tr, r, t0);
    }
    case workload_kind::kv_grid64_star: {
      auto rc = grid64_star_recipe(c, r, t);
      r.world_s += lap(t);
      return run_world(c, std::move(rc), tr, r, t0);
    }
    case workload_kind::kv_fig1_f1: {
      auto rc = fig1_f1_recipe(r, t);
      r.world_s += lap(t);
      return run_world(c, std::move(rc), tr, r, t0);
    }
  }
  r.why = "unknown workload";
  return false;
}

}  // namespace

const std::vector<workload_info>& workloads() {
  static const std::vector<workload_info> all = {
      {workload_kind::smr_n8, "smr-n8", 4000, 1},
      {workload_kind::kv_grid64_star, "kv-grid64-star", 40, 1},
      {workload_kind::kv_fig1_f1, "kv-fig1-f1", 500, 4},
  };
  return all;
}

std::optional<workload_info> find_workload(std::string_view name) {
  for (const workload_info& w : workloads())
    if (name == w.name) return w;
  return std::nullopt;
}

pass_result run_pass(const workload_config& c, bool traced) {
  pass_result r;
  std::unique_ptr<tracer> tr;
  if (traced) tr = std::make_unique<tracer>();
  r.ok = true;
  for (std::uint64_t w = 0; r.ok && w < c.worlds; ++w) {
    workload_config world = c;
    if (w > 0) world.seed = derive_seed(c.seed, 100 + w);
    settle_heap();
    r.ok = run_world(world, tr.get(), r);
  }
  if (tr) r.counts = tr->counts();
  return r;
}

}  // namespace perfbench

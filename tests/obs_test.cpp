// Tests for the observability subsystem (src/obs): the metrics registry
// and its deterministic snapshot/merge pipeline through the experiment
// runner, the time-series sampler, the one gauge registration feeding
// both, the span recorder's well-formedness contract, and an end-to-end
// SMR trace whose commit spans causally follow phase 2.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "core/factories.hpp"
#include "obs/obs.hpp"
#include "sim/runner.hpp"
#include "workload/smr_workload.hpp"

namespace gqs {
namespace {

// ---------------------------------------------------------------------
// metrics_registry

TEST(MetricsRegistry, DisabledHandlesAreNoOps) {
  // A disabled registry (the default) drops every registration unread.
  metrics_registry reg;
  bool read = false;
  reg.observe_counter("bridged", "", [&read] {
    read = true;
    return std::uint64_t{99};
  });
  reg.observe_gauge("depth", "", [&read] {
    read = true;
    return std::int64_t{5};
  });
  EXPECT_TRUE(reg.snapshot().empty());
  EXPECT_FALSE(read);

  // So does a bundle with telemetry and sampling both off.
  obs_bundle o;
  o.gauge("depth", [&read] {
    read = true;
    return std::int64_t{5};
  });
  o.sampler.sample_due(100);
  EXPECT_TRUE(o.metrics.snapshot().empty());
  EXPECT_TRUE(o.sampler.all().empty());
  EXPECT_FALSE(read);
}

TEST(MetricsRegistry, CountersGaugesHistogramsAndLabels) {
  metrics_registry reg;
  reg.enable();
  std::uint64_t reads = 6, writes = 2;
  reg.observe_counter("ops", "read", [&reads] { return reads; });
  reg.observe_counter("ops", "write", [&writes] { return writes; });
  reg.observe_gauge("depth", "", [] { return std::int64_t{7}; });
  reg.observe_gauge("depth", "hot", [] { return std::int64_t{-2}; });

  const metrics_snapshot s = reg.snapshot();
  EXPECT_EQ(s.counter_value("ops", "read"), 6u);
  EXPECT_EQ(s.counter_value("ops", "write"), 2u);
  EXPECT_EQ(s.counter_value("ops"), 0u);  // unlabeled key never registered
  EXPECT_EQ(s.gauge_level("depth"), 7);
  EXPECT_EQ(s.gauge_level("depth", "hot"), -2);
  EXPECT_EQ(s.rows.size(), 4u);
  // Rows are sorted by (kind, name, label) — the determinism invariant.
  for (std::size_t i = 1; i < s.rows.size(); ++i) {
    const auto& p = s.rows[i - 1];
    const auto& q = s.rows[i];
    EXPECT_TRUE(std::tie(p.kind, p.name, p.label) <
                std::tie(q.kind, q.name, q.label));
  }
  const std::string json = s.to_json();
  EXPECT_NE(json.find("\"ops{read}\":6"), std::string::npos);
  EXPECT_NE(json.find("\"depth{hot}\":-2"), std::string::npos);
}

TEST(MetricsRegistry, ObserversSumUnderOneKey) {
  metrics_registry reg;
  reg.enable();
  std::uint64_t n1 = 10, n2 = 32;
  reg.observe_counter("bridged", "", [&n1] { return n1; });
  reg.observe_counter("bridged", "", [&n2] { return n2; });
  std::int64_t backlog = -3;
  reg.observe_gauge("backlog", "", [&backlog] { return backlog; });
  EXPECT_EQ(reg.snapshot().counter_value("bridged"), 42u);
  EXPECT_EQ(reg.snapshot().gauge_level("backlog"), -3);
  n1 = 11;  // live read at snapshot time
  EXPECT_EQ(reg.snapshot().counter_value("bridged"), 43u);
}

TEST(MetricsSnapshot, MergeAddsAndUnions) {
  metrics_registry ra, rb;
  ra.enable();
  rb.enable();
  ra.observe_counter("x", "", [] { return std::uint64_t{2}; });
  ra.observe_gauge("g", "", [] { return std::int64_t{5}; });
  ra.observe_gauge("peak", "", [] { return std::int64_t{7}; },
                   gauge_fold::max);
  rb.observe_counter("x", "", [] { return std::uint64_t{3}; });
  rb.observe_counter("only_b", "", [] { return std::uint64_t{1}; });
  rb.observe_gauge("g", "", [] { return std::int64_t{4}; });
  rb.observe_gauge("peak", "", [] { return std::int64_t{2}; },
                   gauge_fold::max);

  metrics_snapshot m = ra.snapshot();
  m.merge(rb.snapshot());
  EXPECT_EQ(m.counter_value("x"), 5u);
  EXPECT_EQ(m.counter_value("only_b"), 1u);
  EXPECT_EQ(m.gauge_level("g"), 9);     // sum fold adds
  EXPECT_EQ(m.gauge_level("peak"), 7);  // max fold keeps the peak

  // Digest separates distinct snapshots and is stable for equal ones.
  EXPECT_EQ(m.digest(), [&] {
    metrics_snapshot again = ra.snapshot();
    again.merge(rb.snapshot());
    return again.digest();
  }());
  EXPECT_NE(m.digest(), ra.snapshot().digest());
  metrics_snapshot refolded = m;  // same values, one fold changed
  for (metric_row& r : refolded.rows)
    if (r.name == "g") r.fold = gauge_fold::max;
  EXPECT_NE(m.digest(), refolded.digest());

  const std::string json = m.to_json();
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"x\":5"), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"peak\":7"), std::string::npos);
}

// ---------------------------------------------------------------------
// timeseries_sampler

TEST(TimeseriesSampler, PeriodicPointsWithSumAndMaxFolding) {
  timeseries_sampler s;
  EXPECT_FALSE(s.enabled());
  EXPECT_EQ(s.next_due(), sim_time_never);
  s.configure(10);
  ASSERT_TRUE(s.enabled());
  EXPECT_EQ(s.next_due(), 10);

  std::int64_t depth_a = 1, depth_b = 2, view = 3;
  s.add_probe("depth", [&depth_a] { return depth_a; });
  s.add_probe("depth", [&depth_b] { return depth_b; });  // same series: sum
  s.add_probe("view", [&view] { return view; }, gauge_fold::max);

  s.sample_due(10);
  depth_a = 5;
  view = 9;
  s.sample_due(25);  // due instants 20 only (latest <= 25)
  EXPECT_EQ(s.next_due(), 30);

  ASSERT_EQ(s.all().size(), 2u);
  const auto& depth = s.all()[0];
  EXPECT_EQ(depth.name, "depth");
  ASSERT_EQ(depth.points.size(), 2u);
  EXPECT_EQ(depth.points[0].at, 10);
  EXPECT_EQ(depth.points[0].value, 3);  // 1 + 2
  EXPECT_EQ(depth.points[1].at, 20);
  EXPECT_EQ(depth.points[1].value, 7);  // 5 + 2
  const auto& views = s.all()[1];
  EXPECT_EQ(views.points[1].value, 9);

  const std::string json = s.to_json();
  EXPECT_NE(json.find("\"period_us\":10"), std::string::npos);
  EXPECT_NE(json.find("\"depth\""), std::string::npos);
  EXPECT_NE(json.find("[20,7]"), std::string::npos);
}

TEST(TimeseriesSampler, DisabledSamplerDropsProbes) {
  timeseries_sampler s;  // not configured
  s.add_probe("x", [] { return std::int64_t{1}; });
  s.sample_due(100);
  EXPECT_TRUE(s.all().empty());
}

// ---------------------------------------------------------------------
// obs_bundle::gauge

TEST(ObsBundle, OneGaugeFeedsRegistryAndSamplerWithItsFold) {
  // One max-fold gauge registered at two processes: the snapshot and the
  // sampled series both read the peak of the two, not their sum.
  obs_bundle o;
  o.metrics.enable();
  o.sampler.configure(10);
  std::int64_t at_p0 = 3, at_p1 = 8;
  o.gauge("peak", [&at_p0] { return at_p0; }, gauge_fold::max);
  o.gauge("peak", [&at_p1] { return at_p1; }, gauge_fold::max);
  o.sampler.sample_due(10);
  at_p0 = 12;
  o.sampler.sample_due(20);

  const metrics_snapshot snap = o.metrics.snapshot();
  ASSERT_EQ(snap.rows.size(), 1u);
  EXPECT_EQ(snap.rows[0].kind, metric_kind::gauge);
  EXPECT_EQ(snap.rows[0].fold, gauge_fold::max);
  EXPECT_EQ(snap.gauge_level("peak"), 12);

  ASSERT_EQ(o.sampler.all().size(), 1u);
  const auto& series = o.sampler.all()[0];
  EXPECT_EQ(series.name, "peak");
  EXPECT_EQ(series.how, gauge_fold::max);
  ASSERT_EQ(series.points.size(), 2u);
  EXPECT_EQ(series.points[0].value, 8);
  EXPECT_EQ(series.points[1].value, 12);
}

// ---------------------------------------------------------------------
// trace_recorder

TEST(TraceRecorder, SpansOnlyWhenRecording) {
  trace_recorder rec;
  EXPECT_FALSE(rec.active());
  EXPECT_FALSE(rec.begin_span("op", "t", 0, {}, 5).valid());
  rec.start_recording();
  EXPECT_TRUE(rec.active());
  const span_ref s = rec.begin_span("op", "t", 0, {}, 5);
  ASSERT_TRUE(s.valid());
  rec.end_span(s, 9);
  ASSERT_EQ(rec.spans().size(), 1u);
  EXPECT_EQ(rec.spans()[0].start, 5);
  EXPECT_EQ(rec.spans()[0].end, 9);
}

TEST(TraceRecorder, FinalizeClosesAndWidensParents) {
  trace_recorder rec;
  rec.start_recording();
  const span_ref root = rec.begin_span("root", "t", 0, {}, 10);
  const span_ref child = rec.begin_span("child", "t", 1, root, 20);
  rec.end_span(child, 80);
  rec.end_span(root, 50);  // closed before its child ends
  const span_ref late = rec.begin_span("late", "t", 0, root, 30);
  (void)late;  // left open
  rec.finalize(100);
  for (const span_rec& s : rec.spans()) {
    EXPECT_GE(s.end, s.start) << s.name;  // everything closed
    if (s.parent != 0) {
      ASSERT_LT(s.parent, s.id);  // parents precede children
      const span_rec& p = rec.spans()[s.parent - 1];
      EXPECT_LE(p.start, s.start) << s.name;
      EXPECT_GE(p.end, s.end) << s.name;  // parent covers the child
    }
  }
  const std::string json = rec.chrome_json();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"root\""), std::string::npos);
}

TEST(TraceRecorder, NetworkEventsFeedSinkAndSpanLayer) {
  trace_recorder rec;
  std::vector<trace_event> sunk;
  rec.set_event_sink([&sunk](const trace_event& ev) { sunk.push_back(ev); });
  rec.start_recording();
  trace_event ev;
  ev.what = trace_event::kind::send;
  ev.at = 4;
  ev.from = 1;
  ev.to = 2;
  rec.network_event(ev, {});
  ASSERT_EQ(sunk.size(), 1u);
  ASSERT_EQ(rec.spans().size(), 1u);
  EXPECT_EQ(rec.spans()[0].name, "net.send");
  EXPECT_EQ(rec.spans()[0].process, 1u);  // send attributed to the sender
  EXPECT_EQ(rec.spans()[0].start, 4);
}

// ---------------------------------------------------------------------
// end-to-end: SMR world under full telemetry

constexpr sim_time kLong = 600L * 1000 * 1000;

struct telemetry_run {
  metrics_snapshot obs;
  std::vector<timeseries_sampler::series> series;
  std::vector<span_rec> spans;
  std::uint64_t completed = 0;
};

telemetry_run run_smr_telemetry(std::uint64_t seed, bool spans = true) {
  const auto gqs = threshold_quorum_system(4, 1);
  network_options net = consensus_world::partial_sync();
  net.channel.bytes_per_us = 0.5;  // finite links: queueing sub-spans
  net.telemetry = true;
  net.record_spans = spans;
  net.sample_period = 5000;
  smr_world w(gqs, fault_plan::none(4), seed, /*keys=*/8, {}, net);

  telemetry_run out;
  for (process_id p = 0; p < 4; ++p) {
    w.sim.post(p, [&w, &out, p] {
      for (std::uint64_t i = 0; i < 6; ++i)
        w.nodes[p]->submit_write(static_cast<service_key>((p * 6 + i) % 8),
                                 pack_client_value(p, i),
                                 [&out](reg_version) { ++out.completed; });
    });
  }
  EXPECT_TRUE(w.sim.run_until_condition([&] { return out.completed == 24; },
                                        kLong));
  // Drain commit broadcasts so submit spans close at every submitter.
  EXPECT_TRUE(w.sim.run_until_condition(
      [&] {
        for (const smr_service* r : w.nodes)
          if (r->counters().commands_applied < 24) return false;
        return true;
      },
      kLong));
  obs_bundle& o = w.sim.obs();
  o.tracer.finalize(w.sim.now());
  out.obs = o.metrics.snapshot();
  out.series = o.sampler.all();
  out.spans = o.tracer.spans();
  return out;
}

TEST(ObsEndToEnd, SmrTraceIsWellFormed) {
  const telemetry_run run = run_smr_telemetry(21);
  ASSERT_FALSE(run.spans.empty());

  // Every span: closed, parent exists, opened before and closed after it.
  for (const span_rec& s : run.spans) {
    EXPECT_GE(s.end, s.start) << s.name;
    if (s.parent != 0) {
      ASSERT_LT(s.parent, s.id) << s.name;
      const span_rec& p = run.spans[s.parent - 1];
      EXPECT_LE(p.start, s.start) << s.name << " under " << p.name;
      EXPECT_GE(p.end, s.end) << s.name << " under " << p.name;
    }
  }

  // Commit decomposition: some smr.slot root holds both a phase-2 child
  // and a commit child, and the commit starts no earlier than phase 2
  // ends (the commit announcement causally follows the quorum win).
  std::map<std::uint32_t, sim_time> phase2_end, commit_start;
  std::size_t net_under_smr = 0;
  for (const span_rec& s : run.spans) {
    if (s.name == "smr.phase2") phase2_end[s.parent] = s.end;
    if (s.name == "smr.commit") commit_start[s.parent] = s.start;
    if (s.category == "net" && s.parent != 0 &&
        run.spans[s.parent - 1].category == "smr")
      ++net_under_smr;
  }
  std::size_t decomposed = 0;
  for (const auto& [root, p2_end] : phase2_end) {
    ASSERT_NE(root, 0u);
    EXPECT_EQ(run.spans[root - 1].name, "smr.slot");
    const auto c = commit_start.find(root);
    if (c == commit_start.end()) continue;
    EXPECT_GE(c->second, p2_end) << "commit before phase-2 completion";
    ++decomposed;
  }
  EXPECT_GT(decomposed, 0u);
  EXPECT_GT(net_under_smr, 0u);  // wire traffic hangs off protocol spans

  // Registry saw the run through the bridges.
  EXPECT_GE(run.obs.counter_value("smr.commands_applied"), 4u * 24u);
  EXPECT_GT(run.obs.counter_value("sim.messages_delivered"), 0u);
  // Sampler produced series, each one also a registry gauge with the same
  // fold: every gauge is registered once, for both.
  EXPECT_FALSE(run.series.empty());
  std::size_t points = 0;
  for (const auto& s : run.series) {
    points += s.points.size();
    const auto row = std::find_if(
        run.obs.rows.begin(), run.obs.rows.end(), [&s](const metric_row& r) {
          return r.kind == metric_kind::gauge && r.name == s.name;
        });
    ASSERT_NE(row, run.obs.rows.end()) << s.name;
    EXPECT_EQ(row->fold, s.how) << s.name;
  }
  EXPECT_GT(points, 0u);
}

TEST(ObsEndToEnd, TraceIsAPureFunctionOfTheRun) {
  const telemetry_run a = run_smr_telemetry(33);
  const telemetry_run b = run_smr_telemetry(33);
  ASSERT_EQ(a.spans.size(), b.spans.size());
  for (std::size_t i = 0; i < a.spans.size(); ++i)
    ASSERT_EQ(a.spans[i], b.spans[i]) << "span " << i;
  EXPECT_EQ(a.obs, b.obs);
  EXPECT_EQ(a.obs.digest(), b.obs.digest());
}

// Registry aggregation through the experiment runner is bit-identical at
// any worker thread count: snapshots fold in spec order.
TEST(ObsEndToEnd, RunnerAggregatesBitIdenticalAcrossThreadCounts) {
  auto cell = [](std::uint64_t seed) {
    return [seed] {
      const telemetry_run t = run_smr_telemetry(seed, /*spans=*/false);
      run_result r;
      r.obs = t.obs;
      r.stats["completed"] = static_cast<double>(t.completed);
      return r;
    };
  };
  std::vector<run_spec> specs;
  for (std::uint64_t s = 50; s < 54; ++s)
    specs.push_back({"cell-" + std::to_string(s), cell(s)});

  const auto r1 = experiment_runner(1).run_all(specs);
  const auto r2 = experiment_runner(2).run_all(specs);
  const auto r8 = experiment_runner(8).run_all(specs);
  const run_aggregate a1 = aggregate(r1);
  const run_aggregate a2 = aggregate(r2);
  const run_aggregate a8 = aggregate(r8);
  EXPECT_EQ(a1.obs, a2.obs);
  EXPECT_EQ(a1.obs, a8.obs);
  EXPECT_EQ(a1.obs.digest(), a8.obs.digest());
  EXPECT_EQ(to_json(a1).substr(0, to_json(a1).rfind("\"wall_ms\"")),
            to_json(a8).substr(0, to_json(a8).rfind("\"wall_ms\"")));
  EXPECT_FALSE(a1.obs.empty());
  EXPECT_NE(to_json(a1).find("\"obs\""), std::string::npos);
}

}  // namespace
}  // namespace gqs

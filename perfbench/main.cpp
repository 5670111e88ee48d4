// perfbench — one workload of the GQS stack benchmark, measured for a
// fixed host time.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Untraced passes of the workload repeat until --seconds have passed (at
// least kMinPasses); host metrics are their medians, simulated metrics are
// identical across them and are checked to be. --trace 1 alternates
// untraced and traced passes and reports per-layer host time from the
// traced ones; --trace 0 runs one traced pass at the end only to check
// that it reproduces the untraced results. Every pass checks its outputs.
//
// Prints one "name value unit" line per metric (null values name their
// reason), then one JSON object with every metric as the last line. The
// run.py wrapper selects the metrics BENCHMARK.json declares.
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <iostream>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "workload/stats.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;
using host_clock = std::chrono::steady_clock;

constexpr std::size_t kMinPasses = 3;
/// Stop starting passes past this, whatever --seconds says, so a run ends
/// well inside its time limit.
constexpr double kMaxSeconds = 120;

struct args {
  workload_info workload{};
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
};

std::optional<std::uint64_t> parse_uint(std::string_view s) {
  std::uint64_t v = 0;
  const auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc{} || end != s.data() + s.size()) return std::nullopt;
  return v;
}

std::optional<args> parse_args(int argc, char** argv) {
  args a;
  bool have[4] = {};
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view flag = argv[i], value = argv[i + 1];
    if (flag == "--workload") {
      const auto w = find_workload(value);
      if (!w) return std::nullopt;
      a.workload = *w;
      have[0] = true;
    } else if (flag == "--seed") {
      const auto v = parse_uint(value);
      if (!v) return std::nullopt;
      a.seed = *v;
      have[1] = true;
    } else if (flag == "--seconds") {
      const auto v = parse_uint(value);
      if (!v || *v == 0 || *v > 600) return std::nullopt;
      a.seconds = static_cast<double>(*v);
      have[2] = true;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return std::nullopt;
      a.trace = value == "1";
      have[3] = true;
    } else {
      return std::nullopt;
    }
  }
  if (argc % 2 != 1 || !(have[0] && have[1] && have[2] && have[3]))
    return std::nullopt;
  return a;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : (v[m - 1] + v[m]) / 2;
}

template <class F>
double median_of(const std::vector<pass_result>& passes, F f) {
  std::vector<double> v;
  for (const pass_result& p : passes) v.push_back(f(p));
  return median(v);
}

double peak_rss_mb() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

struct metric {
  std::string name;
  std::optional<double> value;
  std::string unit;
  std::string null_reason;
};

class report {
 public:
  void add(std::string name, double v, std::string unit) {
    rows_.push_back({std::move(name), v, std::move(unit), {}});
  }
  /// A ratio; null with `reason` when the denominator is zero.
  void ratio(std::string name, double num, double den, std::string unit,
             std::string reason) {
    if (den == 0)
      rows_.push_back({std::move(name), std::nullopt, std::move(unit),
                       std::move(reason)});
    else
      add(std::move(name), num / den, std::move(unit));
  }

  void print(bool correct, std::uint64_t attempted, std::uint64_t failed,
             const std::string& why) const {
    for (const metric& m : rows_) {
      std::cout << m.name << ' ';
      if (m.value)
        std::cout << gqs::fmt_json_double(*m.value) << ' ' << m.unit << '\n';
      else
        std::cout << "null " << m.unit << " (" << m.null_reason << ")\n";
    }
    if (!why.empty()) std::cout << "check failed: " << why << '\n';
    std::cout << "{\"correct\": " << (correct ? "true" : "false")
              << ", \"attempted\": " << attempted << ", \"failed\": " << failed
              << ", \"metrics\": {";
    const char* sep = "";
    for (const metric& m : rows_) {
      std::cout << sep << '"' << m.name << "\": {\"value\": "
                << (m.value ? gqs::fmt_json_double(*m.value) : "null")
                << ", \"unit\": \"" << m.unit << '"';
      if (!m.value) std::cout << ", \"reason\": \"" << m.null_reason << '"';
      std::cout << '}';
      sep = ", ";
    }
    std::cout << "}}" << std::endl;
  }

 private:
  std::vector<metric> rows_;
};

const char* kWireTypes[] = {
    "SMR_FWD",        "SMR_1A",          "SMR_1B",
    "SMR_2A",         "SMR_2B",          "SMR_COMMIT",
    "SMR_HB",         "SVC_CLOCK_REQ",   "SVC_CLOCK_RESP",
    "SVC_SET_REQ",    "SVC_SET_RESP",    "SVC_GOSSIP",
    "SVC_GOSSIP_NACK", "SVC_GOSSIP_REPAIR"};

void add_metrics(report& rep, const std::vector<pass_result>& untraced,
                 const std::vector<pass_result>& traced, double rss_mb) {
  const pass_result& s = untraced.front();  // simulated results: any pass
  const double ops = static_cast<double>(s.completed);
  const gqs::sim_metrics& m = s.drive_metrics;
  const gqs::sample_summary lat = gqs::summarize(s.latencies_us);
  const service_totals& t = s.totals;

  // ---- end to end ----
  rep.add("setup_s", median_of(untraced, [](const pass_result& p) {
            return p.setup_s;
          }), "s");
  rep.add("ops_per_s", median_of(untraced, [](const pass_result& p) {
            return static_cast<double>(p.completed) / p.drive_s;
          }), "1/s");
  rep.add("checked_ops_per_s", median_of(untraced, [](const pass_result& p) {
            return static_cast<double>(p.completed) /
                   (p.check_s + p.agreement_s);
          }), "1/s");
  rep.add("sim_ops_per_s", ops * 1e6 / static_cast<double>(s.sim_span),
          "1/s");
  rep.add("sim_p50_ms", lat.p50 / 1000, "ms");
  rep.add("sim_p99_ms", lat.p99 / 1000, "ms");
  rep.add("latency_samples", static_cast<double>(lat.count), "count");
  rep.add("stall_ms", static_cast<double>(s.stall) / 1000, "ms");
  rep.add("msgs_per_op", static_cast<double>(m.messages_sent) / ops, "count");
  rep.ratio("bytes_per_op", static_cast<double>(m.bytes_sent),
            s.channel_model ? ops : 0, "B",
            "channel model off: wire bytes are not counted");
  const double attempted = static_cast<double>(s.attempted);
  rep.add("failed_frac", (attempted - ops) / attempted, "ratio");
  rep.add("completed_frac", ops / attempted, "ratio");
  rep.add("completed_pending_writes",
          static_cast<double>(s.completed_pending_writes), "count");
  rep.add("peak_rss_mb", rss_mb, "MB");

  // ---- sim engine ----
  rep.add("sim.events_per_op", static_cast<double>(m.events_processed) / ops,
          "count");
  rep.add("sim.timers_per_op", static_cast<double>(m.timers_fired) / ops,
          "count");
  rep.add("sim.drops_per_op",
          static_cast<double>(m.dropped_disconnected +
                              m.dropped_receiver_crashed +
                              m.dropped_queue_full) / ops,
          "count");
  rep.add("sim.events_per_s",
          static_cast<double>(m.events_processed) /
              median_of(untraced,
                        [](const pass_result& p) { return p.drive_s; }),
          "1/s");
  // ---- channel model ----
  rep.ratio("sim.link_queue_max", static_cast<double>(m.max_link_queue_depth),
            s.channel_model ? 1 : 0, "count",
            "channel model off: link queues are not modelled");
  rep.ratio("sim.bytes_per_msg", static_cast<double>(m.bytes_sent),
            s.channel_model ? static_cast<double>(m.messages_sent) : 0, "B",
            "channel model off: wire bytes are not counted");
  // ---- quorum service ----
  rep.ratio("quorum.ops_per_flush", static_cast<double>(t.ops_started),
            static_cast<double>(t.flushes), "count",
            "no quorum_service flushes (workload runs the SMR)");
  rep.add("quorum.flushes_per_op", static_cast<double>(t.flushes) / ops,
          "count");
  rep.add("quorum.gossip_entries_per_op",
          static_cast<double>(t.gossip_entries) / ops, "count");
  rep.add("quorum.set_entries_per_op",
          static_cast<double>(t.set_entries) / ops, "count");
  rep.add("quorum.nacks_per_op", static_cast<double>(t.nacks) / ops, "count");
  rep.add("quorum.repairs_per_op", static_cast<double>(t.repairs) / ops,
          "count");
  rep.ratio("quorum.targeted_frac", static_cast<double>(t.targeted),
            static_cast<double>(t.probes + t.set_batches), "ratio",
            "no quorum_service flush groups (workload runs the SMR)");
  rep.add("quorum.escalations", static_cast<double>(t.quorum_escalations),
          "count");
  // ---- SMR ----
  rep.ratio("smr.cmds_per_entry", static_cast<double>(t.commands_submitted),
            static_cast<double>(t.entries_proposed), "count",
            "no SMR log entries (workload runs the quorum service)");
  rep.add("smr.entries_per_op", static_cast<double>(t.entries_proposed) / ops,
          "count");
  rep.add("smr.phase1_rounds", static_cast<double>(t.phase1_rounds), "count");
  rep.add("smr.view_changes", static_cast<double>(t.view_changes), "count");
  rep.add("smr.escalations", static_cast<double>(t.smr_escalations), "count");
  rep.add("smr.retries", static_cast<double>(t.retries), "count");
  rep.add("smr.heartbeats_per_op", static_cast<double>(t.heartbeats) / ops,
          "count");
  // ---- checker and set-up ----
  rep.add("lincheck.check_s",
          median_of(untraced, [](const pass_result& p) { return p.check_s; }),
          "s");
  rep.ratio("lincheck.agreement_s",
            median_of(untraced,
                      [](const pass_result& p) { return p.agreement_s; }),
            t.entries_proposed > 0 ? 1 : 0, "s",
            "no SMR replicas to check (workload runs the quorum service)");
  rep.add("core.build_s",
          median_of(untraced, [](const pass_result& p) { return p.core_s; }),
          "s");
  rep.add("strategy.plan_s",
          median_of(untraced, [](const pass_result& p) { return p.plan_s; }),
          "s");
  rep.add("sim.build_s",
          median_of(untraced, [](const pass_result& p) { return p.world_s; }),
          "s");
  rep.add("workload.schedule_s",
          median_of(untraced,
                    [](const pass_result& p) { return p.schedule_s; }),
          "s");
  rep.add("workload.p50_last_over_first",
          median(s.last_tenth_us) / median(s.first_tenth_us), "ratio");

  // ---- traced pass: self time, fan-out, wire attribution ----
  const pass_result& tr = traced.front();
  for (std::size_t l = 0; l < kLayers; ++l) {
    const double us = median_of(traced, [l, ops](const pass_result& p) {
      return p.self_s[l] * 1e6 / ops;
    });
    rep.add(std::string(to_string(static_cast<layer>(l))) + ".self_us_per_op",
            us, "us");
  }
  const trace_counts& c = tr.counts;
  rep.add("flooding.amplification",
          static_cast<double>(m.messages_sent) /
              static_cast<double>(c.requested_dests),
          "ratio");
  rep.add("flooding.dup_frac",
          static_cast<double>(c.duplicate_deliveries) /
              static_cast<double>(c.node_deliveries),
          "ratio");
  rep.add("flooding.requested_per_op",
          static_cast<double>(c.requested_dests) / ops, "count");
  for (const char* type : kWireTypes) {
    std::uint64_t sends = 0;
    for (const auto& [name, n] : c.sends_by_type)
      if (name == type) sends = n;
    rep.add(std::string("wire.") + type + "_per_op",
            static_cast<double>(sends) / ops, "count");
  }
  for (const auto& [name, n] : c.sends_by_type)
    if (std::find(std::begin(kWireTypes), std::end(kWireTypes), name) ==
        std::end(kWireTypes))
      rep.add("wire." + name + "_per_op", static_cast<double>(n) / ops,
              "count");
  rep.add("trace.overhead",
          median_of(traced, [](const pass_result& p) { return p.drive_s; }) /
              median_of(untraced,
                        [](const pass_result& p) { return p.drive_s; }),
          "ratio");
}

/// Empty when the traced pass's layer self times partition its drive time.
std::string check_self_times(const pass_result& p) {
  double sum = 0;
  for (double s : p.self_s) {
    if (s < 0) return "negative layer self time";
    sum += s;
  }
  if (std::abs(sum - p.drive_s) > 0.01 * p.drive_s + 1e-3)
    return "layer self times (" + std::to_string(sum) +
           " s) do not add up to the traced drive time (" +
           std::to_string(p.drive_s) + " s)";
  return {};
}

}  // namespace

int main(int argc, char** argv) {
  const auto a = parse_args(argc, argv);
  if (!a) {
    std::cerr << "usage: perfbench --workload <smr-n8|kv-grid64-star|"
                 "kv-fig1-f1> --seed <n> --seconds <1-600> --trace <0|1>\n";
    return 2;
  }
  workload_config config;
  config.kind = a->workload.kind;
  config.seed = a->seed;
  config.ops_per_process = a->workload.ops_per_process;
  config.worlds = a->workload.worlds;

  const auto start = host_clock::now();
  const auto elapsed = [&] {
    return std::chrono::duration<double>(host_clock::now() - start).count();
  };
  std::vector<pass_result> untraced, traced;
  std::string why;
  std::uint64_t attempted = 0, failed = 0;
  // Peak resident memory after the first pass: later passes reuse a heap
  // whose fragmentation depends on how many passes fit the time budget.
  double rss_mb = 0;
  const auto run = [&](bool with_trace) {
    pass_result p = run_pass(config, with_trace);
    std::cerr << (with_trace ? "traced" : "untraced") << " pass: setup "
              << p.setup_s << " s (core " << p.core_s << ", plan " << p.plan_s
              << ", world " << p.world_s << ", schedule " << p.schedule_s
              << "), drive " << p.drive_s << " s, check "
              << p.check_s + p.agreement_s << " s, " << p.completed
              << " ops\n";
    attempted += p.counted_attempted;
    failed += p.counted_attempted - p.counted_completed;
    if (!p.ok && why.empty()) why = p.why;
    if (p.ok && with_trace && why.empty()) why = check_self_times(p);
    const auto& first = untraced.empty() ? p : untraced.front();
    if (p.ok && why.empty() && p.digest != first.digest)
      why = with_trace ? "traced pass changed the simulated results"
                       : "untraced passes of one seed differ";
    if (untraced.empty() && !with_trace) rss_mb = peak_rss_mb();
    if (!untraced.empty()) {  // only the first pass keeps its outputs
      p.digest = {};
      p.latencies_us = {};
    }
    (with_trace ? traced : untraced).push_back(std::move(p));
    return why.empty();
  };
  bool ok = true;
  while (ok && (untraced.size() < kMinPasses || elapsed() < a->seconds) &&
         elapsed() < kMaxSeconds)
    ok = run(false) && (!a->trace || run(true));
  if (ok && traced.empty()) ok = run(true);

  report rep;
  if (ok) add_metrics(rep, untraced, traced, rss_mb);
  rep.print(ok, attempted, failed, why);
  return ok ? 0 : 1;
}

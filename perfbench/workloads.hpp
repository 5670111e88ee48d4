// workloads.hpp — the benchmark's three seeded workloads and one pass
// over each.
//
// A pass builds the workload's world from scratch, drives its fixed
// operation schedule closed-loop to the end, and checks the outputs. The
// schedule, the simulation seed and the selector seeds all derive from the
// workload seed, so every simulated result of a pass is a pure function of
// (code, seed); only host times vary between passes.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "sim/simulation.hpp"
#include "tracing.hpp"

namespace perfbench {

enum class workload_kind { smr_n8, kv_grid64_star, kv_fig1_f1 };

struct workload_info {
  workload_kind kind;
  const char* name;
  /// Ops per client process in a benchmark pass.
  std::uint64_t ops_per_process;
  /// Independent worlds per pass (seeds derived from the workload seed):
  /// pooling them steadies simulated metrics whose run-to-run spread
  /// across seeds is wide.
  std::uint64_t worlds;
};

const std::vector<workload_info>& workloads();
std::optional<workload_info> find_workload(std::string_view name);

struct workload_config {
  workload_kind kind = workload_kind::smr_n8;
  std::uint64_t seed = 1;
  std::uint64_t ops_per_process = 0;
  std::uint64_t worlds = 1;
};

/// Summed service counters of a pass (the counter structs of the service
/// the workload runs; the other stays zero).
struct service_totals {
  // quorum_service
  std::uint64_t ops_started = 0, flushes = 0, probes = 0, set_batches = 0,
                set_entries = 0, gossip_entries = 0, nacks = 0, repairs = 0,
                targeted = 0, quorum_escalations = 0;
  // smr_service
  std::uint64_t commands_submitted = 0, entries_proposed = 0,
                phase1_rounds = 0, view_changes = 0, smr_escalations = 0,
                retries = 0, heartbeats = 0;
};

struct pass_result {
  bool ok = false;
  std::string why;  ///< first failed check, when !ok

  // ---- host seconds ----
  // Summed over the pass's worlds.
  double setup_s = 0;  ///< workload start → first op issued
  double core_s = 0, plan_s = 0, world_s = 0, schedule_s = 0;
  double drive_s = 0;      ///< the drive loop
  double check_s = 0;      ///< completion + check_keyed_history
  double agreement_s = 0;  ///< check_smr_agreement + convergence (smr)

  // ---- simulated results (summed or pooled over worlds) ----
  std::uint64_t attempted = 0;
  std::uint64_t completed = 0;
  /// Ops of the counted clients (all clients, or U_f under a failure
  /// pattern): every one of them must complete for the pass to pass.
  std::uint64_t counted_attempted = 0;
  std::uint64_t counted_completed = 0;
  std::uint64_t completed_pending_writes = 0;
  std::vector<double> latencies_us;  ///< completed ops, issue order
  /// Latencies of the first and the last tenth of each world's completed
  /// ops, in issue order.
  std::vector<double> first_tenth_us, last_tenth_us;
  /// Launch to last completion, summed over worlds.
  gqs::sim_time sim_span = 0;
  /// Longest interval without a completion, over all worlds.
  gqs::sim_time stall = 0;
  gqs::sim_metrics drive_metrics;  ///< at the end of each drive loop
  bool channel_model = false;
  service_totals totals;
  /// Every simulated output of the pass (metrics, latencies, histories,
  /// counters, replica states): equal across passes of one seed, traced
  /// or not.
  std::vector<std::uint64_t> digest;

  // ---- traced pass only ----
  std::array<double, kLayers> self_s{};
  trace_counts counts;
};

/// One pass over `config.worlds` worlds; traced passes also fill self_s
/// and counts.
pass_result run_pass(const workload_config& config, bool traced);

}  // namespace perfbench

// metrics.hpp — labeled metrics registry for the simulator.
//
// The registry stores nothing of its own: it is a snapshot-time view of
// values the components already keep. Each instrument is an observer, a
// read-only callback invoked only inside snapshot(), so an armed registry
// costs the hot path nothing. Two instrument kinds:
//
//   counter — monotone uint64, bridged from a counter struct field
//             (sim_metrics, service_counters, smr_counters), which stays
//             the storage every other caller reads;
//   gauge   — signed level (int64) read from a size or peak the component
//             keeps. Gauges are registered through obs_bundle::gauge,
//             which hands the same callback to the time-series sampler.
//
// Several registrations under one (name, label) key fold into one row:
// counters add, a gauge folds by its gauge_fold (sum or max). That is how
// per-process instruments (e.g. each flooding node's dedup backlog)
// aggregate without coordination, and metrics_snapshot::merge folds the
// snapshots of several runs the same way. A disabled registry (the
// default) drops every registration, so its snapshot is empty.
//
// Determinism: snapshot() rows are sorted by (kind, name, label) and hold
// only integers; merge is key-ordered integer arithmetic. experiment_runner
// folds per-run snapshots in spec order, so aggregate metrics are
// bit-identical at any worker thread count.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

namespace gqs {

enum class metric_kind : std::uint8_t { counter, gauge };

/// How readings of one gauge combine: across the processes registering
/// it (at snapshot and sample time) and across runs (snapshot merge).
enum class gauge_fold : std::uint8_t { sum, max };

/// Folds one more reading `v` of a gauge into `acc`.
constexpr std::int64_t fold_gauge(gauge_fold how, std::int64_t acc,
                                  std::int64_t v) noexcept {
  return how == gauge_fold::max ? (v > acc ? v : acc) : acc + v;
}

/// One row of a snapshot. Which payload field is live depends on `kind`.
struct metric_row {
  metric_kind kind = metric_kind::counter;
  std::string name;
  std::string label;
  std::uint64_t value = 0;            ///< counter
  std::int64_t level = 0;             ///< gauge
  gauge_fold fold = gauge_fold::sum;  ///< gauge

  bool operator==(const metric_row&) const = default;
};

/// Point-in-time copy of a registry: sorted rows of plain integers.
struct metrics_snapshot {
  std::vector<metric_row> rows;  // sorted by (kind, name, label)

  bool empty() const noexcept { return rows.empty(); }

  /// Folds `other` in: counters add, gauges fold by the row's gauge_fold,
  /// keys union. Key-ordered integer arithmetic — associative and exact,
  /// so fold order (spec order in experiment_runner) fully determines the
  /// result bit for bit.
  void merge(const metrics_snapshot& other);

  std::uint64_t counter_value(const std::string& name,
                              const std::string& label = "") const;
  std::int64_t gauge_level(const std::string& name,
                           const std::string& label = "") const;

  /// FNV-1a over every row (kind, key, fold and payload).
  std::uint64_t digest() const;

  /// {"counters": {...}, "gauges": {...}} with integer values only
  /// (locale-proof).
  std::string to_json() const;

  bool operator==(const metrics_snapshot&) const = default;
};

/// The registry. One per simulation; disabled by default.
class metrics_registry {
 public:
  void enable() noexcept { enabled_ = true; }
  bool enabled() const noexcept { return enabled_; }

  /// Registers a snapshot-time observer: `fn` is invoked only inside
  /// snapshot(). Registrations under one key fold (see the file comment);
  /// a gauge key keeps the fold of its first registration. Dropped
  /// silently when disabled.
  void observe_counter(std::string_view name, std::string_view label,
                       std::function<std::uint64_t()> fn);
  void observe_gauge(std::string_view name, std::string_view label,
                     std::function<std::int64_t()> fn,
                     gauge_fold how = gauge_fold::sum);

  metrics_snapshot snapshot() const;

 private:
  struct observer {
    metric_kind kind;
    std::string name;
    std::string label;
    gauge_fold fold;
    std::function<std::uint64_t()> counter_fn;
    std::function<std::int64_t()> gauge_fn;
  };

  bool enabled_ = false;
  std::vector<observer> observers_;
};

}  // namespace gqs

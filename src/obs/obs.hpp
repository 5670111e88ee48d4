// obs.hpp — the per-simulation observability surface.
//
// One bundle per simulation, owned by it and switched on via
// network_options (telemetry / record_spans / sample_period). Components
// reach it through transport::obs() (see sim/transport.hpp) or
// node::sim().obs() and self-register counters, gauges and spans;
// everything stays a no-op when the corresponding switch is off.
#pragma once

#include <functional>
#include <string_view>

#include "obs/metrics.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace.hpp"

namespace gqs {

struct obs_bundle {
  metrics_registry metrics;
  trace_recorder tracer;
  timeseries_sampler sampler;

  /// The one registration of a gauge: the registry reads `fn` at snapshot
  /// time (telemetry on) and the sampler at every period (sample_period
  /// > 0), both folding registrations of `name` by `how`.
  void gauge(std::string_view name, std::function<std::int64_t()> fn,
             gauge_fold how = gauge_fold::sum) {
    metrics.observe_gauge(name, "", fn, how);
    sampler.add_probe(name, std::move(fn), how);
  }
};

}  // namespace gqs

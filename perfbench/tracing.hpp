// tracing.hpp — host-time attribution for the traced benchmark pass.
//
// The program under test carries no tracing of its own here, so the
// traced pass wraps it from the outside: a traced_node stands in front of
// each single_host (flooding layer), a traced_component stands between the
// host and the real service (quorum or SMR layer), and the workload
// adapter times submit calls and completion callbacks. Each wrapper opens
// a frame on one shared layer_profiler; a layer's self time is its frames'
// duration minus the nested frames inside them, so the per-layer self
// times partition the traced drive time exactly.
//
// The wrappers only forward calls: they draw no randomness, arm no timers
// and send nothing, so a traced pass reproduces the untraced pass's
// simulated run bit for bit (the benchmark checks this on every run).
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sim/transport.hpp"

namespace perfbench {

using gqs::message_ptr;
using gqs::process_id;
using gqs::process_set;
using gqs::sim_time;

/// Host-time owners. `trace` is the wrappers' own bookkeeping.
enum class layer : std::uint8_t { sim, flooding, quorum, smr, workload, trace };
inline constexpr std::size_t kLayers = 6;
const char* to_string(layer l);

/// Nested-interval profiler over a steady clock.
class layer_profiler {
 public:
  void enter(layer l) {
    stack_.push_back(frame{l, clock::now(), clock::duration::zero()});
  }

  void exit() {
    const frame f = stack_.back();
    stack_.pop_back();
    const clock::duration d = clock::now() - f.start;
    self_[static_cast<std::size_t>(f.l)] += d - f.children;
    if (!stack_.empty()) stack_.back().children += d;
  }

  /// Seconds of self time per layer.
  std::array<double, kLayers> self_seconds() const;

 private:
  using clock = std::chrono::steady_clock;
  struct frame {
    layer l;
    clock::time_point start;
    clock::duration children;
  };
  std::vector<frame> stack_;
  std::array<clock::duration, kLayers> self_{};
};

/// RAII frame.
class scoped_frame {
 public:
  scoped_frame(layer_profiler& p, layer l) : p_(p) { p_.enter(l); }
  ~scoped_frame() { p_.exit(); }
  scoped_frame(const scoped_frame&) = delete;
  scoped_frame& operator=(const scoped_frame&) = delete;

 private:
  layer_profiler& p_;
};

/// Everything the traced pass counts besides time.
struct trace_counts {
  /// Component-level sends per message type (unicast, broadcast and
  /// multicast calls, by debug_name()).
  std::vector<std::pair<std::string, std::uint64_t>> sends_by_type;
  /// Destinations other than the sender that components asked for.
  std::uint64_t requested_dests = 0;
  /// Physical messages handed to nodes, and those the flooding dedup
  /// discarded (a copy of an envelope the node had already received).
  std::uint64_t node_deliveries = 0;
  std::uint64_t duplicate_deliveries = 0;
};

/// Shared state of one traced pass.
class tracer {
 public:
  layer_profiler& profiler() noexcept { return prof_; }

  /// Counts one component-level send of m to `dests` destinations.
  void count_send(const message_ptr& m, std::uint64_t dests);

  /// Counts a physical delivery from `from` at `to`, classifying flooding
  /// duplicates.
  void count_delivery(process_id from, process_id to, const message_ptr& m);

  trace_counts counts() const;

 private:
  std::size_t type_index(const message_ptr& m);

  layer_profiler prof_;
  /// message type tag → index into names_/sends_ (messages are built
  /// through make_message, so one tag names one type).
  std::unordered_map<gqs::message_type_tag, std::size_t> type_of_;
  std::vector<std::string> names_;
  std::vector<std::uint64_t> sends_;
  std::vector<bool> is_envelope_;
  std::uint64_t requested_ = 0;
  std::uint64_t deliveries_ = 0;
  std::uint64_t duplicates_ = 0;
  /// Envelopes in flight, with the processes that have received each.
  /// Every relay of one flood forwards the same shared envelope object, so
  /// object identity is (origin, seq). The weak_ptr keeps the object's
  /// storage (never the object) allocated, so its address cannot be reused
  /// by a later envelope while the entry exists.
  struct receipt {
    std::weak_ptr<const gqs::message> object;
    process_set receivers;
  };
  std::unordered_map<const gqs::message*, receipt> envelopes_;
  std::size_t prune_at_ = 4096;
};

/// Stands between a single_host and the real service component S: the
/// service is bound to this wrapper as its transport, and every call in
/// either direction is forwarded and timed.
template <class S>
class traced_component final : public gqs::component, public gqs::transport {
 public:
  traced_component(std::unique_ptr<S> svc, tracer& t, layer service_layer)
      : svc_(std::move(svc)), t_(t), layer_(service_layer) {
    svc_->bind(*this);
  }

  // ---- host → service ----
  void start() override {
    scoped_frame f(t_.profiler(), layer_);
    svc_->start();
  }
  void deliver(process_id origin, const message_ptr& payload) override {
    scoped_frame f(t_.profiler(), layer_);
    svc_->deliver(origin, payload);
  }
  void on_timeout(int timer_id) override {
    scoped_frame f(t_.profiler(), layer_);
    svc_->on_timeout(timer_id);
  }

  // ---- service → host (the flooding transport) ----
  void unicast(process_id dest, message_ptr m) override {
    count(m, dest == self() ? 0 : 1);
    scoped_frame f(t_.profiler(), layer::flooding);
    component::unicast(dest, std::move(m));
  }
  void broadcast(message_ptr m) override {
    count(m, size() - 1);
    scoped_frame f(t_.profiler(), layer::flooding);
    component::broadcast(std::move(m));
  }
  void multicast(process_set dests, message_ptr m) override {
    count(m, dests.size() - (dests.contains(self()) ? 1 : 0));
    scoped_frame f(t_.profiler(), layer::flooding);
    component::multicast(dests, std::move(m));
  }
  int set_timer(sim_time delay) override {
    return component::set_timer(delay);
  }
  process_id self() const override { return component::id(); }
  process_id size() const override { return component::system_size(); }
  sim_time now() const override { return component::now(); }
  gqs::obs_bundle* obs() const override { return component::obs(); }

 private:
  void count(const message_ptr& m, std::uint64_t dests) {
    scoped_frame f(t_.profiler(), layer::trace);
    t_.count_send(m, dests);
  }

  std::unique_ptr<S> svc_;
  tracer& t_;
  layer layer_;
};

/// Stands in front of a single_host: the simulation talks to this node,
/// which forwards every callback to the host it owns (attached to the same
/// simulation under the same id, so the host's own sends and timers go
/// straight to the engine).
class traced_node final : public gqs::node {
 public:
  traced_node(std::unique_ptr<gqs::single_host> host, tracer& t)
      : host_(std::move(host)), t_(t) {}

  void on_attach() override;
  void on_start() override;
  void on_message(process_id from, const message_ptr& m) override;
  void on_timer(int timer_id) override;

 private:
  // single_host keeps its node callbacks protected; they are public on
  // the node interface.
  gqs::node& inner() noexcept { return *host_; }

  std::unique_ptr<gqs::single_host> host_;
  tracer& t_;
};

}  // namespace perfbench

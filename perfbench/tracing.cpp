#include "tracing.hpp"

namespace perfbench {

const char* to_string(layer l) {
  switch (l) {
    case layer::sim: return "sim";
    case layer::flooding: return "flooding";
    case layer::quorum: return "quorum";
    case layer::smr: return "smr";
    case layer::workload: return "workload";
    case layer::trace: return "trace";
  }
  return "?";
}

std::array<double, kLayers> layer_profiler::self_seconds() const {
  std::array<double, kLayers> out{};
  for (std::size_t i = 0; i < kLayers; ++i)
    out[i] = std::chrono::duration<double>(self_[i]).count();
  return out;
}

std::size_t tracer::type_index(const message_ptr& m) {
  const auto [it, inserted] = type_of_.try_emplace(m->type_tag, names_.size());
  if (inserted) {
    names_.push_back(m->debug_name());
    sends_.push_back(0);
    // flooding_node's envelope type is private; its name identifies it.
    is_envelope_.push_back(names_.back() == "envelope");
  }
  return it->second;
}

void tracer::count_send(const message_ptr& m, std::uint64_t dests) {
  ++sends_[type_index(m)];
  requested_ += dests;
}

void tracer::count_delivery(process_id from, process_id to,
                            const message_ptr& m) {
  ++deliveries_;
  if (!is_envelope_[type_index(m)]) return;  // direct messages never repeat
  const auto [it, inserted] = envelopes_.try_emplace(m.get());
  receipt& r = it->second;
  if (inserted) {
    // Relays follow receipt, so the first copy delivered anywhere comes
    // straight from the origin, which has marked the envelope seen.
    r.object = m;
    r.receivers.insert(from);
  }
  if (r.receivers.contains(to)) {
    ++duplicates_;
    return;
  }
  r.receivers.insert(to);
  if (!inserted || envelopes_.size() < prune_at_) return;
  // Forget envelopes that are gone: nobody can deliver them again.
  std::erase_if(envelopes_,
                [](const auto& kv) { return kv.second.object.expired(); });
  prune_at_ = 2 * envelopes_.size() + 4096;
}

trace_counts tracer::counts() const {
  trace_counts c;
  for (std::size_t i = 0; i < names_.size(); ++i)
    if (sends_[i] > 0) c.sends_by_type.emplace_back(names_[i], sends_[i]);
  c.requested_dests = requested_;
  c.node_deliveries = deliveries_;
  c.duplicate_deliveries = duplicates_;
  return c;
}

void traced_node::on_attach() {
  host_->attach(&sim(), id());
  inner().on_attach();
}

void traced_node::on_start() {
  scoped_frame f(t_.profiler(), layer::flooding);
  inner().on_start();
}

void traced_node::on_message(process_id from, const message_ptr& m) {
  {
    scoped_frame f(t_.profiler(), layer::trace);
    t_.count_delivery(from, id(), m);
  }
  scoped_frame f(t_.profiler(), layer::flooding);
  host_->on_message(from, m);
}

void traced_node::on_timer(int timer_id) {
  scoped_frame f(t_.profiler(), layer::flooding);
  inner().on_timer(timer_id);
}

}  // namespace perfbench

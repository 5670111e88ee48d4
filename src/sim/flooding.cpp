#include "sim/flooding.hpp"

namespace gqs {

void flooding_node::on_attach() {
  sim().obs().gauge("flood.dedup_backlog", [this] {
    return static_cast<std::int64_t>(dedup_backlog());
  });
}

void flooding_node::on_message(process_id from, const message_ptr& m) {
  // Tag dispatch: every envelope is built in originate() and tagged there,
  // so the hot path is one pointer compare (untagged messages, which only
  // hand-crafted tests send, still take the dynamic_cast fallback).
  if (m->type_tag == message_tag_of<envelope>()) {
    handle(from, std::static_pointer_cast<const envelope>(m));
    return;
  }
  if (m->type_tag == message_tag_of<direct_msg>()) {
    // Targeted fast path: deliver in place. No dedup (a physical channel
    // delivers at most once) and no forwarding (it was addressed to this
    // process alone).
    const auto* d = static_cast<const direct_msg*>(m.get());
    on_deliver(d->origin, d->payload);
    return;
  }
  const auto env = std::dynamic_pointer_cast<const envelope>(m);
  if (!env) return;  // flooding nodes only exchange envelopes
  handle(from, env);
}

void flooding_node::flood_send(process_id dest, message_ptr payload) {
  if (dest != to_all && dest >= system_size())
    throw std::out_of_range("flood_send: destination out of range");
  originate(dest, std::move(payload));
}

void flooding_node::flood_broadcast(message_ptr payload) {
  originate(to_all, std::move(payload));
}

void flooding_node::flood_multicast(process_set dests, message_ptr payload) {
  if (!dests.is_subset_of(process_set::full(system_size())))
    throw std::out_of_range("flood_multicast: destination out of range");
  if (dests.contains(id())) {
    // Local delivery first, mirroring originate()'s self path.
    sim().post(id(), [this, payload] { on_deliver(id(), payload); });
    dests.erase(id());
  }
  if (dests.empty()) return;
  const connectivity_epochs& ep = sim().epochs();
  const std::size_t e = sim().current_epoch();
  // One direct physical message per member whose channel is still up and
  // who is still alive; the wrapper is shared across all of them.
  const process_set direct = dests & ep.up_out_channels(e, id()) &
                             ep.alive(e);
  if (!direct.empty()) {
    const message_ptr wrapped = make_message<direct_msg>(id(), payload);
    for (process_id d : direct) send(d, wrapped);
  }
  // The rest route around failures like any unicast (or get dropped as
  // unreachable, which a caller's escalation path must tolerate anyway).
  for (process_id d : dests - direct) originate(d, payload);
}

bool flooding_node::mark_seen(const envelope& env) {
  // This process's own envelopes were never marked: one that comes back
  // is always a duplicate.
  if (env.origin == id()) return false;
  if (env.dest == to_all) {
    if (seen_.size() <= env.origin) seen_.resize(system_size());
    return seen_[env.origin].mark(env.seq);
  }
  if (unicast_seen_.size() <= env.dest) unicast_seen_.resize(system_size());
  std::vector<sequence_filter>& row = unicast_seen_[env.dest];
  if (row.empty()) row.resize(system_size());
  return row[env.origin].mark(env.seq);
}

const process_set& flooding_node::next_hops(process_id dest) {
  const std::size_t e = sim().current_epoch();
  if (e != hops_epoch_) {
    const connectivity_epochs& ep = sim().epochs();
    next_hops_.assign(system_size(), process_set{});
    if (ep.alive(e, id())) {
      // q is worth a copy for d iff q reaches d without passing through
      // this process: q is an up, live neighbor that can reach d in the
      // residual graph with this process removed.
      const process_set neighbors = ep.up_out_channels(e, id()) & ep.alive(e);
      digraph rest = ep.residual(e);
      rest.remove_vertices(process_set::singleton(id()));
      for (process_id d : rest.present())
        next_hops_[d] = rest.reaching(d) & neighbors;
    }
    hops_epoch_ = e;
  }
  return next_hops_[dest];
}

void flooding_node::originate(process_id dest, message_ptr payload) {
  if (dest == id()) {
    // A process trivially reaches itself: nothing goes on the wire.
    sim().post(id(), [this, payload] { on_deliver(id(), payload); });
    return;
  }
  std::uint64_t seq = 0;
  if (dest == to_all) {
    seq = next_seq_++;
  } else {
    // Resolve the unreachable-destination drop BEFORE consuming a sequence
    // number: a seq that is never sent would leave a permanent gap in the
    // (origin, dest) stream of every process on the way. Monotone failures
    // make the drop final either way.
    if (next_hops(dest).empty()) return;
    if (next_unicast_seq_.empty()) next_unicast_seq_.resize(system_size());
    seq = next_unicast_seq_[dest]++;
  }
  auto env = std::make_shared<envelope>(id(), seq, dest, std::move(payload));
  env->type_tag = message_tag_of<envelope>();
  // Local delivery first (a process trivially "reaches" itself).
  if (dest == to_all)
    sim().post(id(), [this, env] { on_deliver(env->origin, env->payload); });
  forward(env, id());
}

void flooding_node::handle(process_id from,
                           const std::shared_ptr<const envelope>& env) {
  if (!mark_seen(*env)) return;
  // Forward once (not back to the immediate sender; duplicates are
  // filtered by the receivers' dedup state anyway).
  forward(env, from);
  if (env->dest == to_all || env->dest == id())
    on_deliver(env->origin, env->payload);
}

void flooding_node::forward(const std::shared_ptr<const envelope>& env,
                            process_id skip) {
  // A broadcast goes over every up channel to a live process: a send on a
  // downed channel is dropped at the channel, one to a crashed process is
  // dropped at delivery, and a crashed process forwards nothing, so
  // skipping both changes no delivery. A point-to-point envelope goes only
  // to the neighbors that still lead to its destination (empty once the
  // destination is unreachable from here, or is this process).
  process_set targets;
  if (env->dest == to_all) {
    const connectivity_epochs& ep = sim().epochs();
    const std::size_t e = sim().current_epoch();
    targets = ep.up_out_channels(e, id()) & ep.alive(e);
  } else {
    targets = next_hops(env->dest);
  }
  for (process_id q : targets)
    if (q != skip) send(q, env);
}

}  // namespace gqs

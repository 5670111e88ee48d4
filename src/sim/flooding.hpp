// flooding.hpp — transitive connectivity via message forwarding.
//
// The paper assumes WLOG that the connectivity relation of G \ f is
// transitive, "simulated by having all processes forward every received
// message" (§5, §7). flooding_node realizes exactly that: every protocol
// payload travels inside an envelope that each process forwards to all its
// physical neighbors once (deduplicated by origin + sequence number), so a
// payload reaches every process connected to its origin by a directed path
// of correct channels.
//
// Three engine-level optimizations, all sound because failures are
// monotone (a downed channel never comes back, so every later epoch's
// residual graph is a subgraph of the current one):
//  * envelopes are forwarded only over channels that are up in the current
//    connectivity epoch — a send on a downed channel is guaranteed to be
//    dropped, so skipping it changes no delivery;
//  * a point-to-point envelope whose destination is outside the current
//    residual reachability of the forwarder is dropped early — it can
//    never be delivered in this epoch or any later one;
//  * a point-to-point envelope for d is relayed by x to a neighbor q only
//    if q == d or d is reachable from q in the current residual graph with
//    x removed. A copy sent to q reaches d only along a path from q; if
//    every such path (in this epoch, hence in every later one) passes
//    through x, the copy can only come back to x, which has already seen
//    it. So d receives the same copies at the same times, and the pruned
//    processes never see the envelope at all. On a star, a leaf-to-leaf
//    unicast costs two messages instead of a flood through the hub, and
//    the destination itself relays nothing.
//
// Because of the third rule, processes off every path to d never see an
// (origin, d) envelope, so point-to-point envelopes cannot share the
// origin's broadcast sequence space (every pruned process would keep a
// permanent gap). Each (origin, dest) pair has its own sequence space and
// its own lazily allocated dedup filter instead. Within one epoch every
// envelope of a pair reaches the same set of processes, so each stream
// stays gap-free. Broadcasts use the per-origin space and go over every
// up channel, since every live process is one of their destinations.
//
// Protocols built on flooding_node use flood_send / flood_broadcast and
// receive payloads through on_deliver(origin, payload); they never see the
// envelopes.
#pragma once

#include <cstdint>
#include <set>
#include <vector>

#include "sim/simulation.hpp"

namespace gqs {

/// Duplicate filter over a dense sequence space with a high-water mark:
/// every seq < low() has been seen, and only the (transiently sparse)
/// out-of-order seqs >= low() are buffered. Memory is proportional to the
/// reordering backlog — the gaps still in flight — not to the total number
/// of sequences ever seen.
class sequence_filter {
 public:
  /// Marks seq as seen. Returns true iff it was not seen before.
  bool mark(std::uint64_t seq) {
    if (seq < low_) return false;
    if (seq == low_) {
      ++low_;
      auto it = pending_.begin();
      while (it != pending_.end() && *it == low_) {
        it = pending_.erase(it);
        ++low_;
      }
      return true;
    }
    return pending_.insert(seq).second;
  }

  bool seen(std::uint64_t seq) const {
    return seq < low_ || pending_.count(seq) != 0;
  }

  /// All seqs below this have been seen.
  std::uint64_t low() const noexcept { return low_; }

  /// Number of buffered out-of-order seqs (0 once the stream has no gaps).
  std::size_t backlog() const noexcept { return pending_.size(); }

 private:
  std::uint64_t low_ = 0;
  std::set<std::uint64_t> pending_;
};

class flooding_node : public node {
 public:
  /// Pseudo-destination meaning "deliver at every process".
  static constexpr process_id to_all = 0xffffffff;

  void on_message(process_id from, const message_ptr& m) final;

  /// Total buffered out-of-order envelope seqs across all origins — the
  /// dedup state that is *not* covered by a high-water mark. Stays flat
  /// over time unless envelopes are permanently lost mid-stream (soak
  /// tests assert this).
  std::size_t dedup_backlog() const {
    std::size_t total = 0;
    for (const sequence_filter& f : seen_) total += f.backlog();
    for (const std::vector<sequence_filter>& row : unicast_seen_)
      for (const sequence_filter& f : row) total += f.backlog();
    return total;
  }

  /// Registers the dedup backlog as a gauge, summed across nodes.
  void on_attach() override;

 protected:
  /// Sends payload to a single destination, routed around channel failures
  /// by flooding. Delivery to self is immediate (same instant, new event).
  void flood_send(process_id dest, message_ptr payload);

  /// Sends payload to every process, including the sender itself (the
  /// paper's "send to all"; quorums may contain the sender).
  void flood_broadcast(message_ptr payload);

  /// Sends payload to exactly the members of `dests` (which may include
  /// the sender), preferring one *direct* physical message per member —
  /// the targeted (non-broadcast) quorum-access fast path. A destination
  /// whose direct channel is already down falls back to a relayed unicast
  /// (flood_send: it travels only along the paths that still lead to the
  /// destination); an unreachable one is dropped, exactly as flood_send
  /// would. Direct messages bypass the envelope/dedup machinery
  /// entirely: a physical channel delivers at most once, and nobody
  /// forwards them, so they consume no flooding sequence numbers and leave
  /// no gaps in any peer's dedup filter. Cost over healthy channels is
  /// |dests| messages instead of the flooding storm's Θ(n²).
  void flood_multicast(process_set dests, message_ptr payload);

  /// Protocol-level receipt: payload originated at `origin` (which may be
  /// this process itself).
  virtual void on_deliver(process_id origin, const message_ptr& payload) = 0;

 private:
  /// A targeted point-to-point message: delivered where it lands, never
  /// forwarded, never deduplicated (see flood_multicast).
  struct direct_msg : message {
    process_id origin;
    message_ptr payload;

    direct_msg(process_id o, message_ptr p)
        : origin(o), payload(std::move(p)) {
      if (payload) trace_span = payload->trace_span;  // ride the span
    }
    std::string debug_name() const override { return "direct"; }
    std::size_t wire_size() const override {
      return 16 + payload->wire_size();  // origin + framing
    }
  };

  struct envelope : message {
    process_id origin;
    std::uint64_t seq;
    process_id dest;  // a process id, or to_all
    message_ptr payload;

    envelope(process_id o, std::uint64_t s, process_id d, message_ptr p)
        : origin(o), seq(s), dest(d), payload(std::move(p)) {
      if (payload) trace_span = payload->trace_span;  // ride the span
    }
    std::string debug_name() const override { return "envelope"; }
    std::size_t wire_size() const override {
      return 24 + payload->wire_size();  // origin + seq + dest + framing
    }
  };

  void originate(process_id dest, message_ptr payload);
  void handle(process_id from, const std::shared_ptr<const envelope>& env);
  /// Forwards env to every neighbor worth reaching (see file comment),
  /// except `skip` (the immediate sender, or this process on origination).
  void forward(const std::shared_ptr<const envelope>& env, process_id skip);
  /// Marks env's (origin, seq) seen in its sequence space; true iff new.
  bool mark_seen(const envelope& env);
  /// The neighbors worth relaying a point-to-point envelope for `dest` to
  /// in the current epoch (the third pruning rule); empty iff `dest` is
  /// this process or unreachable from here. Rebuilt on the first call in
  /// each new epoch.
  const process_set& next_hops(process_id dest);

  std::uint64_t next_seq_ = 0;  // broadcast sequence space
  std::vector<std::uint64_t> next_unicast_seq_;  // indexed by dest
  std::vector<sequence_filter> seen_;  // broadcasts, indexed by origin
  // Point-to-point streams, indexed [dest][origin]; a row is allocated the
  // first time this process relays or receives an envelope for that dest.
  std::vector<std::vector<sequence_filter>> unicast_seen_;
  // next_hops_[d] for epoch hops_epoch_ (npos: not built yet). Per node,
  // never shared: runner threads run whole simulations independently.
  std::size_t hops_epoch_ = static_cast<std::size_t>(-1);
  std::vector<process_set> next_hops_;
};

}  // namespace gqs

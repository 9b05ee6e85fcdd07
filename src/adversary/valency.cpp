#include "adversary/valency.h"

#include <string>
#include <utility>

#include "engine/scheduler.h"
#include "engine/visited.h"

namespace memu::adversary {

namespace {

// DFS over all delivery schedules of the probe extension; a branch ends
// when the read responds (its value is collected) or quiesces.
class ValencyExplorer {
 public:
  ValencyExplorer(std::size_t base_events, std::size_t max_states)
      : base_events_(base_events),
        max_states_(max_states),
        // Exact dedupe: this probe is the ground truth the deterministic
        // probe is validated against, so no fingerprint-collision risk.
        visited_({/*exact=*/true, /*shards=*/1}) {}

  void walk(const World& w) {
    if (!visited_.try_insert(w.canonical_encoding())) return;
    MEMU_CHECK_MSG(visited_.size() <= max_states_,
                   "exact valency probe exceeded its state budget");

    // Did the read respond in this state? Indexed access near the log's
    // end is O(1) per event on the chunked oplog; flattening via events()
    // would copy the whole history per visited state.
    const OpLog& log = w.oplog();
    for (std::size_t i = base_events_; i < log.size(); ++i) {
      if (log[i].kind == OpEvent::Kind::kResponse &&
          log[i].type == OpType::kRead) {
        values_.insert(log[i].value);
        return;  // branch decided; no need to go deeper
      }
    }
    // Each branch delivers into its own copy, never into `w`, so the
    // channels can be enumerated in place.
    w.for_each_deliverable([&](ChannelId chan, std::size_t) {
      for (const std::size_t index : w.deliverable_indices(chan)) {
        World next = w;
        next.deliver(chan, index);
        walk(next);
      }
    });
  }

  std::set<Value> take() && { return std::move(values_); }

 private:
  std::size_t base_events_;
  std::size_t max_states_;
  engine::VisitedSet visited_;
  std::set<Value> values_;
};

// Delivers every pending server-to-server message (Definition 5.3 lets
// the inter-server channels act before the read is invoked). Const access
// for the is_server() queries: the non-const process() overload detaches
// shared COW blocks, which a read-only query must not force.
void flush_gossip(World& w) {
  for (;;) {
    bool delivered = false;
    for (const ChannelId chan : w.deliverable_channels()) {
      if (std::as_const(w).process(chan.src).is_server() &&
          std::as_const(w).process(chan.dst).is_server()) {
        w.deliver(chan);
        delivered = true;
        break;  // channel list may have changed; re-enumerate
      }
    }
    if (!delivered) break;
  }
}

}  // namespace

std::optional<Value> probe_read(const World& at, NodeId writer, NodeId reader,
                                const ProbeOptions& opt) {
  // COW fork: pointer bumps now, detaches only for what the probe's own
  // steps touch — the probe never disturbs the real execution.
  World w = at;
  w.freeze(writer);

  if (opt.flush_gossip) flush_gossip(w);

  const std::size_t base_events = w.oplog().size();
  w.invoke(reader, Invocation{OpType::kRead, {}});

  Scheduler sched(Scheduler::Policy::kRoundRobin);
  const bool done = sched.run_until(
      w,
      [base_events](const World& x) {
        return x.oplog().responses_since(base_events) >= 1;
      },
      opt.max_steps);
  if (!done) return std::nullopt;

  const OpLog& log = w.oplog();
  for (std::size_t i = base_events; i < log.size(); ++i) {
    if (log[i].kind == OpEvent::Kind::kResponse &&
        log[i].type == OpType::kRead)
      return log[i].value;
  }
  return std::nullopt;
}

std::set<Value> probe_read_all_values(const World& at, NodeId writer,
                                      NodeId reader, const ProbeOptions& opt,
                                      std::size_t max_states) {
  World w = at;
  w.freeze(writer);
  if (opt.flush_gossip) flush_gossip(w);
  const std::size_t base_events = w.oplog().size();
  w.invoke(reader, Invocation{OpType::kRead, {}});

  ValencyExplorer explorer(base_events, max_states);
  explorer.walk(w);
  return std::move(explorer).take();
}

}  // namespace memu::adversary

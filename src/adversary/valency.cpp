#include "adversary/valency.h"

#include <string>
#include <utility>

#include "engine/frontier.h"

namespace memu::adversary {

namespace {

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

// A COW fork of `at` (the probe never disturbs the real execution) with
// the writer frozen and gossip flushed if asked.
World frozen_fork(const World& at, NodeId writer, const ProbeOptions& opt) {
  World w = at;
  w.freeze(writer);
  if (opt.flush_gossip) flush_gossip(w);
  return w;
}

// The value of the read response logged since `base_events`, or nullptr.
// Indexed access near the log's end is O(1) per event on the chunked
// oplog; flattening via events() would copy the whole history.
const Value* read_response(const World& w, std::size_t base_events) {
  const OpLog& log = w.oplog();
  for (std::size_t i = base_events; i < log.size(); ++i) {
    if (log[i].kind == OpEvent::Kind::kResponse &&
        log[i].type == OpType::kRead)
      return &log[i].value;
  }
  return nullptr;
}

}  // namespace

std::optional<Value> run_solo_read(World& w, NodeId reader, Scheduler& sched,
                                   std::uint64_t max_steps) {
  const std::size_t base = w.oplog().size();
  w.invoke(reader, Invocation{OpType::kRead, {}});
  const bool done = sched.run_until(
      w,
      [base](const World& x) { return x.oplog().responses_since(base) >= 1; },
      max_steps);
  const Value* value = done ? read_response(w, base) : nullptr;
  if (value == nullptr) return std::nullopt;
  return *value;
}

std::optional<Value> probe_read(const World& at, NodeId writer, NodeId reader,
                                const ProbeOptions& opt) {
  World w = frozen_fork(at, writer, opt);
  Scheduler sched(Scheduler::Policy::kRoundRobin);
  return run_solo_read(w, reader, sched, opt.max_steps);
}

std::set<Value> probe_read_all_values(const World& at, NodeId writer,
                                      NodeId reader, const ProbeOptions& opt,
                                      std::size_t max_states) {
  World w = frozen_fork(at, writer, opt);
  const std::size_t base_events = w.oplog().size();
  w.invoke(reader, Invocation{OpType::kRead, {}});

  ExploreOptions explore;
  explore.reorder = true;  // the paper's channels are not FIFO
  // Exact dedupe: this probe is the ground truth the deterministic probe
  // is validated against, so no fingerprint-collision risk.
  explore.exact_dedupe = true;
  explore.max_states = max_states;
  // Never the bound that cuts: every state on an expanded path is a
  // distinct admitted state, so a path of max_states deliveries would need
  // max_states + 1 of them, past the state budget.
  explore.max_depth = max_states;
  // Sleep sets keep the value set (engine/frontier.h): a delivery to the
  // reader produces the response, and any step to the reader is dependent
  // with that delivery and wakes it.
  explore.reduction.sleep_sets = true;

  // A branch ends when the read responds (a leaf: its value is collected)
  // or quiesces.
  std::set<Value> values;
  const ExploreResult r = engine::frontier_search(
      w, explore, {}, {}, [&values, base_events](const World& x) {
        const Value* value = read_response(x, base_events);
        if (value != nullptr) values.insert(*value);
        return value != nullptr;
      });
  MEMU_CHECK_MSG(r.complete, "exact valency probe exceeded its state budget");
  return values;
}

}  // namespace memu::adversary

#include "workload/driver.h"

#include <map>

#include "common/check.h"
#include "registers/value.h"

namespace memu::workload {

namespace {

struct ClientState {
  bool busy = false;
  std::size_t issued = 0;
  std::uint64_t invoke_step = 0;
};

// With a before_step hook, a step the scheduler cannot take (e.g. an active
// partition starves every quorum) is retried, and the hook gets a chance per
// retry to heal or recover. Give up after this many fruitless retries and
// return whatever history exists.
constexpr std::size_t kStallGrace = 1'000;

}  // namespace

RunResult run(World& world, const std::vector<NodeId>& writers,
              const std::vector<NodeId>& readers, const Options& opt) {
  MEMU_CHECK(!writers.empty() || !readers.empty());
  MEMU_CHECK(opt.value_size >= kMinValueSize);

  RunResult result;
  Scheduler sched(opt.policy, opt.seed);
  // The paper's storage measures are suprema over the points of the
  // execution: the meter sees the pre-run point and the point after every
  // delivered message.
  StorageMeter meter;

  std::map<NodeId, ClientState> state;
  for (const NodeId w : writers) state[w] = {};
  for (const NodeId r : readers) state[r] = {};

  std::size_t oplog_cursor = world.oplog().size();
  const std::size_t want_responses = writers.size() * opt.writes_per_writer +
                                     readers.size() * opt.reads_per_reader;
  std::size_t responses = 0;
  // Absorbs new oplog events: marks clients idle on response. Cursor-style
  // indexed access stays O(1) per event on the chunked oplog.
  const auto absorb = [&] {
    const OpLog& log = world.oplog();
    for (; oplog_cursor < log.size(); ++oplog_cursor) {
      const auto& e = log[oplog_cursor];
      const auto it = state.find(e.client);
      if (it == state.end()) continue;
      if (e.kind == OpEvent::Kind::kResponse) {
        it->second.busy = false;
        ++responses;
        result.op_latency_steps.push_back(e.step - it->second.invoke_step);
      }
    }
  };

  meter.observe(world);
  std::size_t stalled = 0;
  while (sched.steps_taken() < opt.max_steps) {
    absorb();
    if (responses >= want_responses) break;

    // Keep idle clients busy while quota remains.
    for (std::size_t i = 0; i < writers.size(); ++i) {
      ClientState& cs = state[writers[i]];
      if (cs.busy || cs.issued >= opt.writes_per_writer) continue;
      const Value v = unique_value(static_cast<std::uint32_t>(i + 1),
                                   cs.issued + 1, opt.value_size);
      world.invoke(writers[i], Invocation{OpType::kWrite, v});
      cs.busy = true;
      ++cs.issued;
      cs.invoke_step = world.step_count();
    }
    for (const NodeId r : readers) {
      ClientState& cs = state[r];
      if (cs.busy || cs.issued >= opt.reads_per_reader) continue;
      world.invoke(r, Invocation{OpType::kRead, {}});
      cs.busy = true;
      ++cs.issued;
      cs.invoke_step = world.step_count();
    }

    if (opt.before_step) opt.before_step(world, sched.steps_taken());
    if (sched.step(world)) {
      meter.observe(world);
      stalled = 0;
    } else if (!opt.before_step || ++stalled >= kStallGrace) {
      // Quotas unmet and nothing to deliver: stuck.
      break;
    }
  }
  absorb();  // trailing events

  result.completed = responses >= want_responses;
  result.steps = sched.steps_taken();
  result.storage = meter.report();
  result.history = History::from_oplog(world.oplog());
  return result;
}

}  // namespace memu::workload

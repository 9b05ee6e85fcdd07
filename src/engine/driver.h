// ExecutionDriver: the engine layer's common stepping interface.
//
// Everything that advances a World — the fair schedulers, scripted
// counterexample replay, and the adversary harness constructions — shares
// the same needs: deliver one message at a time, run until a predicate or
// quiescence, and count steps. ExecutionDriver centralizes those loops so a
// driver only implements step(): which message to deliver next. Storage
// metering and fault injection belong to the closed-loop client driver
// (workload::run), which steps a Scheduler one message at a time.
#pragma once

#include <cstdint>
#include <functional>

#include "sim/world.h"

namespace memu::engine {

class ExecutionDriver {
 public:
  virtual ~ExecutionDriver() = default;

  // Delivers at most one message. Returns false when the driver cannot take
  // a step (quiescence, fully blocked channels, or an exhausted script).
  virtual bool step(World& world) = 0;

  // Steps until `pred(world)` holds, `max_steps` deliveries happen, or
  // step() returns false. Returns true iff the predicate was satisfied.
  bool run_until(World& world, const std::function<bool(const World&)>& pred,
                 std::uint64_t max_steps);

  // Steps until the driver can take no further step or `max_steps`
  // deliveries happen. Returns true iff the world has no deliverable
  // message afterwards (quiescence).
  bool drain(World& world, std::uint64_t max_steps);

  // Steps until `n` more operation responses appear in the oplog.
  bool run_until_responses(World& world, std::size_t n,
                           std::uint64_t max_steps);

  std::uint64_t steps_taken() const { return steps_taken_; }

 protected:
  // Subclasses call this after every delivered message.
  void note_step() { ++steps_taken_; }

 private:
  std::uint64_t steps_taken_ = 0;
};

}  // namespace memu::engine

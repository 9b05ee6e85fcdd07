#include "engine/driver.h"

namespace memu::engine {

bool ExecutionDriver::run_until(World& world,
                                const std::function<bool(const World&)>& pred,
                                std::uint64_t max_steps) {
  for (std::uint64_t i = 0; i < max_steps; ++i) {
    if (pred(world)) return true;
    if (!step(world)) return pred(world);
  }
  return pred(world);
}

bool ExecutionDriver::drain(World& world, std::uint64_t max_steps) {
  for (std::uint64_t i = 0; i < max_steps; ++i) {
    if (!step(world)) return !world.has_deliverable();
  }
  return !world.has_deliverable();
}

bool ExecutionDriver::run_until_responses(World& world, std::size_t n,
                                          std::uint64_t max_steps) {
  const std::size_t base = world.oplog().size();
  return run_until(
      world,
      [base, n](const World& w) { return w.oplog().responses_since(base) >= n; },
      max_steps);
}

}  // namespace memu::engine

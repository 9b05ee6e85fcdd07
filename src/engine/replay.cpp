#include "engine/replay.h"

namespace memu::engine {

bool ReplayDriver::step(World& world) {
  if (done()) return false;
  const ExploreStep& s = script_[next_++];
  world.deliver(s.chan, s.index);
  note_step(world);
  return true;
}

std::size_t replay(World& world, const std::vector<ExploreStep>& script) {
  ReplayDriver driver(script);
  while (driver.step(world)) {
  }
  return driver.steps_taken();
}

}  // namespace memu::engine

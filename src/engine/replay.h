// ReplayDriver: an ExecutionDriver that replays a recorded delivery script.
//
// The explorer's violation_path, the adversary harness's constructed
// schedules, and regression fixtures are all "deliver exactly these
// (channel, index) pairs in order". ReplayDriver turns such a script into a
// driver, so replay shares the run loops and step counting with every
// other driver instead of hand-rolled deliver loops.
#pragma once

#include <cstdint>
#include <vector>

#include "engine/driver.h"
#include "engine/frontier.h"

namespace memu::engine {

class ReplayDriver : public ExecutionDriver {
 public:
  explicit ReplayDriver(std::vector<ExploreStep> script)
      : script_(std::move(script)) {}

  // Delivers the next scripted step; false when the script is exhausted.
  bool step(World& world) override;

  bool done() const { return next_ >= script_.size(); }
  std::size_t position() const { return next_; }

 private:
  std::vector<ExploreStep> script_;
  std::size_t next_ = 0;
};

// Convenience: applies `script` to `world` in order. Returns the number of
// deliveries applied (always script.size(); deviations are contract
// violations inside World::deliver).
std::size_t replay(World& world, const std::vector<ExploreStep>& script);

}  // namespace memu::engine

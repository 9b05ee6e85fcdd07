#include "engine/scheduler.h"

#include <algorithm>

namespace memu {

ChannelId Scheduler::choose(World& world) {
  const std::vector<ChannelId> chans = world.deliverable_channels();
  MEMU_CHECK(!chans.empty());
  if (policy_ != Policy::kRoundRobin) {
    return chans[rng_.next_below(chans.size())];
  }
  // Round-robin: first channel strictly after the cursor, wrapping.
  // deliverable_channels() is sorted by (src, dst).
  auto it = std::upper_bound(chans.begin(), chans.end(), cursor_);
  if (it == chans.end()) it = chans.begin();
  cursor_ = *it;
  return *it;
}

bool Scheduler::step(World& world) {
  if (!world.has_deliverable()) return false;
  const ChannelId chan = choose(world);
  if (policy_ == Policy::kRandomReorder) {
    const auto indices = world.deliverable_indices(chan);
    MEMU_CHECK(!indices.empty());
    world.deliver(chan, indices[rng_.next_below(indices.size())]);
  } else {
    world.deliver_next_allowed(chan);
  }
  note_step();
  return true;
}

}  // namespace memu

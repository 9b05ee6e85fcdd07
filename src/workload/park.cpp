#include "workload/park.h"

#include "common/check.h"
#include "engine/scheduler.h"
#include "registers/value.h"

namespace memu::workload {

constexpr std::uint64_t kRunCap = 1'000'000;

// Each parked write is the paper's "active write": it never completes, so
// the servers cannot garbage-collect its version.
StorageReport park_active_writes(algo::Deployment& sys,
                                 const algo::Family& family, std::size_t nu,
                                 std::size_t value_size) {
  MEMU_CHECK_MSG(family.in_value_phase != nullptr,
                 family.name << " has no value-dependent phase to park in");
  MEMU_CHECK_MSG(sys.writers.size() >= nu,
                 "need at least nu writer clients to park nu writes");
  StorageMeter meter;
  Scheduler sched;
  meter.observe(sys.world);

  for (std::size_t w = 0; w < nu; ++w) {
    const NodeId writer = sys.writers[w];
    const Value v = unique_value(static_cast<std::uint32_t>(w + 1), 1,
                                 value_size);
    sys.world.invoke(writer, Invocation{OpType::kWrite, v});
    const bool ok = sched.run_until(
        sys.world,
        [&](const World& world) {
          return family.in_value_phase(world, writer);
        },
        kRunCap);
    MEMU_CHECK_MSG(ok, "writer " << w << " never reached its payload phase");
    // The payload lands at every server, in server order...
    for (const NodeId server : sys.servers)
      sys.world.drain_channel({writer, server});
    sys.world.freeze(writer);  // ...and the write stays active
    sched.drain(sys.world, kRunCap);
    meter.observe(sys.world);
  }
  return meter.report();
}

}  // namespace memu::workload

// Adversarial "parked writes" driver.
//
// The worst-case storage of erasure-coded algorithms is attained when nu
// write operations are concurrently active: each has pushed its coded
// elements to the servers but has not finished (Section 2.3 of the paper).
// This helper constructs exactly that execution: each writer is run up to
// its value-dependent phase and then frozen, so its write stays active
// forever.
#pragma once

#include <cstddef>

#include "algo/registry.h"
#include "storage/meter.h"

namespace memu::workload {

// Parks `nu` concurrent writes on `sys`, a deployment of `family` with at
// least nu writer clients: each writer is driven to the family's
// value-dependent phase, its payload is delivered to every server, and it
// is frozen there. For CAS every server ends up holding the coded element
// of each parked write plus all finalized versions; for ABD replication
// storage does NOT grow with nu. Returns the storage report observed
// across the whole construction. The family must have a value-phase
// predicate.
StorageReport park_active_writes(algo::Deployment& sys,
                                 const algo::Family& family, std::size_t nu,
                                 std::size_t value_size);

}  // namespace memu::workload

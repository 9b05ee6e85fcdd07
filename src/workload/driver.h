// Workload driver: closed-loop clients over a World.
//
// Keeps every writer and reader busy (one outstanding operation per client,
// per the model's well-formedness), up to per-client operation quotas, while
// stepping the scheduler and observing storage. The number of *writers* is
// the workload's concurrency knob: nu concurrently active write operations
// need nu writer clients. Every closed-loop run goes through here: `memu
// run`, the sweep's steady-state measurements, and each fuzz walk, trace
// replay and minimizer probe (whose injector is the before_step hook).
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "consistency/history.h"
#include "engine/scheduler.h"
#include "sim/world.h"
#include "storage/meter.h"

namespace memu::workload {

struct Options {
  std::size_t writes_per_writer = 4;
  std::size_t reads_per_reader = 4;
  std::size_t value_size = 64;
  std::uint64_t seed = 1;
  Scheduler::Policy policy = Scheduler::Policy::kRandom;
  std::uint64_t max_steps = 1'000'000;  // delivered messages
  // Called before every step attempt with the steps taken so far; the fuzz
  // Injector perturbs the World here, so fault timing is a pure function
  // of the step counter. With a hook, a step the scheduler cannot take is
  // retried (the hook may heal or recover); without one, it ends the run.
  std::function<void(World&, std::uint64_t steps_taken)> before_step;
};

struct RunResult {
  History history;
  StorageReport storage;
  std::uint64_t steps = 0;
  bool completed = false;  // all quotas met within max_steps
  // Per-operation latency in delivered messages (responses only).
  std::vector<std::uint64_t> op_latency_steps;
};

// Drives `writers` and `readers` (client NodeIds in `world`) until all
// quotas are met. Writer i writes unique_value(i + 1, seq). Returns the
// history, peak storage, and latency samples.
RunResult run(World& world, const std::vector<NodeId>& writers,
              const std::vector<NodeId>& readers, const Options& opt);

}  // namespace memu::workload

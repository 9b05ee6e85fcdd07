// Fuzz campaigns: seed-deterministic fault-injection random walks.
//
// A campaign runs FuzzPlan::walks independent random walks against a fresh
// system per walk. Walk i derives its scheduler seed and its injection seed
// from (plan.seed, i) by mixing, so the whole campaign is a pure function
// of (spec, plan): two runs with the same seed produce byte-identical
// summaries and traces (timing never enters the summary). Each walk:
//
//   1. builds the system named by spec.algo,
//   2. drives a closed-loop workload through a Scheduler whose pre-step
//      hook is an Injector (random mode),
//   3. feeds the resulting history to the consistency checker named by
//      plan.check and meters storage along the way,
//   4. on violation, records a replayable FuzzTrace and (optionally)
//      shrinks it with the minimizer.
//
// replay_trace() reruns a recorded trace with a *scripted* injector — same
// walk seed, same event script, no randomness — and reproduces the walk
// exactly. The minimizer and the CLI `replay` verb are both built on it.
//
// Parallelism: walks are independent pure functions of (spec, plan,
// walk_seed), so FuzzPlan::threads dispatches them through
// engine::parallel_for and the results merge back in walk_index
// order. The summary and every trace are byte-identical for any thread
// count. Each worker thread keeps one prototype FuzzSystem per spec and
// serves walks from COW copies of it (cowstats::fuzz_system_builds /
// fuzz_system_reuses meter the saved construction work).
#pragma once

#include <string>
#include <vector>

#include "algo/registry.h"
#include "consistency/checker.h"
#include "fuzz/injector.h"
#include "fuzz/plan.h"
#include "fuzz/trace_io.h"
#include "registers/value.h"
#include "sim/world.h"

namespace memu::fuzz {

// A constructed system ready to walk.
struct FuzzSystem : algo::Deployment {
  Value initial;  // v0, what the checker assumes precedes everything
};

// Builds the registered family spec.algo (algo/registry.h). abd-regular,
// checked atomic, is the intentional violation generator. Throws
// std::runtime_error naming every registered family on an unknown name.
FuzzSystem make_fuzz_system(const SystemSpec& spec);

// Outcome of one walk.
struct WalkResult {
  std::size_t walk_index = 0;
  std::uint64_t walk_seed = 0;
  bool completed = false;  // all client quotas met before max_steps/stuck
  std::uint64_t steps = 0;
  std::size_t injected = 0;         // faults fired
  std::size_t skipped = 0;          // scripted events whose target was gone
  std::size_t ops = 0;              // completed operations in the history
  double peak_total_value_bits = 0;  // storage supremum over the walk
  CheckResult check;
  FuzzTrace trace;  // replayable record; meaningful when !check.ok
};

// Aggregate of a whole campaign. to_json() is byte-deterministic and
// excludes wall-clock timing by design.
struct CampaignSummary {
  SystemSpec spec;
  FuzzPlan plan;
  std::vector<WalkResult> walks;
  std::size_t violations = 0;
  std::size_t completed_walks = 0;
  std::size_t injected_total = 0;
  std::uint64_t steps_total = 0;

  std::string to_json() const;
};

// Runs the campaign. Deterministic in (spec, plan).
CampaignSummary run_campaign(const SystemSpec& spec, const FuzzPlan& plan);

// Replays a recorded trace with a scripted injector. The returned result
// carries a fresh check verdict and a trace whose events are the subset
// that actually applied.
WalkResult replay_trace(const FuzzTrace& trace);

// replay_trace with the trace's event script swapped for `events` — the
// minimizer's probe primitive. Equivalent to copying the trace and
// replacing its events, without reallocating the rest of the trace; the
// script passes through a reused per-thread replay buffer.
WalkResult replay_trace_with(const FuzzTrace& trace,
                             const std::vector<InjectedEvent>& events);

// Derived seeds, exposed so tests can pin walks: scheduler and injector
// draw from independent streams.
std::uint64_t walk_seed_for(std::uint64_t campaign_seed, std::size_t walk);
std::uint64_t injection_seed_for(std::uint64_t walk_seed);

}  // namespace memu::fuzz

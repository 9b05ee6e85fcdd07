// Fuzz campaign configuration: what system to build, what faults to mix in,
// and how long to walk.
//
// Everything here is plain data that serializes into a FuzzTrace, so a
// recorded counterexample is self-contained: the trace names the system
// spec, the plan, the walk seed, and the injected events, and replaying it
// rebuilds the identical walk. Determinism is the whole design: a campaign
// is a pure function of (spec, plan), byte-for-byte, across runs and
// machines.
#pragma once

#include <cstdint>
#include <string>

#include "algo/registry.h"
#include "common/arena.h"
#include "consistency/checker.h"

namespace memu::fuzz {

// The system a campaign runs against: a registered family and the fields
// of algo::Spec the fuzzer varies.
struct SystemSpec {
  std::string algo = "abd";  // any name algo::family_names() lists
  std::size_t n_servers = 5;
  std::size_t f = 2;
  std::size_t k = 0;  // code dimension; 0 = max (n - 2f)
  std::size_t n_writers = 2;
  std::size_t n_readers = 2;
  std::size_t value_size = 16;  // bytes

  // The property the family promises. Throws std::runtime_error on an
  // unregistered name.
  CheckKind default_check() const { return algo::family(algo).promises; }

  friend bool operator==(const SystemSpec&, const SystemSpec&) = default;
};

// Per-scheduling-point fault probabilities. At each point the injector
// rolls once and fires at most one fault; the bands are cumulative, so the
// sum must stay <= 1. Crash respects the concurrent-f budget; partition
// fires only when none is active, heal only when one is.
struct FaultMix {
  double crash = 0.0;
  double recover = 0.0;
  double drop = 0.0;
  double duplicate = 0.0;
  double delay = 0.0;
  double partition = 0.0;
  double heal = 0.0;

  double sum() const {
    return crash + recover + drop + duplicate + delay + partition + heal;
  }

  // The default campaign mix: every fault class enabled, rates low enough
  // that most walks complete their quotas (a walk that loses liveness
  // still has its history checked — it is just less interesting).
  static FaultMix standard() {
    FaultMix m;
    m.crash = 0.004;
    m.recover = 0.004;
    m.drop = 0.006;
    m.duplicate = 0.006;
    m.delay = 0.010;
    m.partition = 0.002;
    m.heal = 0.020;
    return m;
  }

  // Crash/recover only — the mix of the ported crash-timing fuzz test.
  static FaultMix crashes_only(double crash = 0.01, double recover = 0.0) {
    FaultMix m;
    m.crash = crash;
    m.recover = recover;
    return m;
  }
};

// One campaign: `walks` independent seed-derived random walks.
struct FuzzPlan {
  std::uint64_t seed = 1;
  std::size_t walks = 16;
  std::uint64_t max_steps = 20'000;  // deliveries per walk
  std::size_t writes_per_writer = 3;
  std::size_t reads_per_reader = 3;
  // The property asserted on each walk's history. kAtomic on a
  // regular-only system (algo "abd-regular") is the intentional mismatch
  // the tests use to manufacture real, replayable violations.
  CheckKind check = CheckKind::kAtomic;
  FaultMix mix = FaultMix::standard();
  bool minimize = true;  // shrink each violating walk's trace before reporting
  // Worker threads for the campaign. Every walk is an independent pure
  // function of (spec, plan, walk_seed), so walks dispatch through
  // engine::parallel_for and results merge in walk_index order: the summary
  // (and every trace) is BYTE-IDENTICAL for any value of `threads` —
  // deliberately excluded from to_json() and the trace format. Purely a
  // wall-clock knob; 1 = in-line serial execution.
  std::size_t threads = 1;
  // Memory budget for the campaign (`--mem` on `memu fuzz`). Walk memory is
  // transient — each walk's World replica and history die with the walk —
  // so the budget is validated up front against the concurrent-walk
  // envelope (run_campaign CHECK-fails with a sizing hint if `threads`
  // concurrent walks cannot fit) rather than metered per allocation. Like
  // `threads`, a machine-local execution knob: deliberately excluded from
  // to_json() and the trace format, so budgeted and unbudgeted campaigns
  // stay byte-identical.
  MemBudget mem;
};

}  // namespace memu::fuzz

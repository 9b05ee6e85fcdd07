// Fault injector: perturbs a World at scheduling points.
//
// Plugged into workload::run as its before_step hook, so it sees every
// point the scheduler could act and keys every fault by the scheduler's
// step counter. Two modes share one application path:
//   * random — rolls the FaultMix once per point with a private Rng and
//     fires at most one fault, RECORDING it as an InjectedEvent;
//   * scripted — fires the recorded events of a FuzzTrace at their step
//     indices, consuming no randomness (replay and minimization).
// Application is identical in both modes (apply()), so a recorded event
// replays exactly. Scripted application is best-effort: an event whose
// target no longer exists (the minimizer removed an earlier event and the
// walk diverged) is skipped and counted, never fatal.
//
// The f budget is enforced over CONCURRENTLY crashed servers via NodeSet
// accounting: crash fires only while crashed servers < f, recover frees
// budget. Scripted mode enforces the same rule, so no minimized trace can
// sneak past the budget.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/ids.h"
#include "common/rng.h"
#include "fuzz/plan.h"
#include "sim/world.h"

namespace memu::fuzz {

// One injected fault, keyed by the scheduling point at which it fired.
// Server-targeted kinds name the server by its index in the spec's server
// list (stable across replays); message-targeted kinds name the concrete
// channel endpoints and queue position.
struct InjectedEvent {
  enum class Kind : std::uint8_t {
    kCrash,      // crash server `server`
    kRecover,    // recover server `server`
    kDrop,       // drop message (src, dst)[index]
    kDuplicate,  // duplicate message (src, dst)[index]
    kDelay,      // move message (src, dst)[index] to the back of its queue
    kPartition,  // partition servers in `group_bits` from everyone else
    kHeal,       // heal the active partition
  };

  std::uint64_t at_step = 0;
  Kind kind = Kind::kCrash;
  std::uint32_t server = 0;      // kCrash / kRecover
  std::uint32_t src = 0;         // kDrop / kDuplicate / kDelay
  std::uint32_t dst = 0;
  std::uint32_t index = 0;
  std::uint64_t group_bits = 0;  // kPartition: bit i = server i is in group

  friend bool operator==(const InjectedEvent&, const InjectedEvent&) = default;
};

std::string event_kind_name(InjectedEvent::Kind k);
InjectedEvent::Kind event_kind_from_name(const std::string& name);

// Human-readable one-liner, also written into the oplog fault tag.
std::string describe(const InjectedEvent& e);

class Injector {
 public:
  // Random mode. `servers` are the crashable nodes (the spec's server
  // list); at most `f` may be crashed concurrently.
  Injector(std::vector<NodeId> servers, std::size_t f, FaultMix mix,
           std::uint64_t seed);

  // Scripted mode: fires `script` events at their recorded step indices.
  Injector(std::vector<NodeId> servers, std::size_t f,
           std::vector<InjectedEvent> script);

  // The pre-step hook body: bind into a closed-loop run via
  //   opt.before_step = [&inj](World& w, std::uint64_t s) {
  //     inj.before_step(w, s); };  // workload::Options
  void before_step(World& world, std::uint64_t steps_taken);

  // Every event fired so far (random mode records; scripted mode echoes
  // the applied subset).
  const std::vector<InjectedEvent>& events() const { return events_; }

  // Scripted events whose target had disappeared and were skipped.
  std::size_t skipped() const { return skipped_; }

  // Reclaims the scripted-event buffer (capacity included) once the walk
  // is done. replay_trace keeps one such buffer per worker thread and
  // round-trips it through every probe, so a minimization run's thousands
  // of scripted replays share a single script allocation. The injector is
  // spent afterwards.
  std::vector<InjectedEvent> release_script() { return std::move(script_); }

  // Servers currently crashed (the budget NodeSet) — exposed for the
  // f-budget tests.
  std::size_t crashed_now() const { return crashed_.size(); }

 private:
  bool apply(World& world, const InjectedEvent& e);
  void record(World& world, InjectedEvent e);
  void roll(World& world, std::uint64_t steps_taken);

  std::vector<NodeId> servers_;
  std::size_t f_ = 0;
  FaultMix mix_;
  Rng rng_;
  bool scripted_ = false;
  std::vector<InjectedEvent> script_;  // sorted by at_step (input order kept)
  std::size_t next_scripted_ = 0;
  std::size_t skipped_ = 0;

  NodeSet crashed_;          // f-budget accounting, mirrors World state
  bool partition_active_ = false;
  std::vector<InjectedEvent> events_;
};

}  // namespace memu::fuzz

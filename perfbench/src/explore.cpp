// explore-cas: sequential exhaustive exploration of CAS (write || read, FIFO
// channels) with an atomicity + liveness check at every terminal state.
//
//   phase 1 (full):    N=3 f=1 k=1, no reduction — one exploration per
//                      seed-chosen written value.
//   phase 2 (reduced): N=4 f=1 k=1, sleep sets + symmetry, --mem 64M.
//
// The frontier, visited set, COW World and state hash do nearly all the
// work. Symmetry canonicalization runs only in phase 2, so phase 1 is where
// a symmetry change must show no effect. Metrics are times to a verdict
// (reported as verdicts per second), never states per second: a fix that
// merges more states would otherwise read as a slowdown.
#include <optional>
#include <string>
#include <vector>

#include "algo/cas/system.h"
#include "bench.h"
#include "common/arena.h"
#include "consistency/checker.h"
#include "engine/frontier.h"
#include "inputs.h"
#include "sim/cow_stats.h"
#include "sim/symmetry.h"

namespace perfbench {
namespace {

using namespace memu;

constexpr std::size_t kValueBytes = 12;
constexpr std::size_t kSampleEvery = 64;  // sim samples: every 64th state

// Every exploration must reproduce these counters exactly, whatever value
// the seed picks: the counters are a property of the protocol, not of the
// value written.
struct Pinned {
  std::size_t states, terminals, transitions, deduped;
};
constexpr Pinned kFull{103147, 24, 511863, 408717};
constexpr Pinned kReduced{83329, 15, 209383, 126055};

World cas_world(std::size_t n_servers, std::uint64_t value_index) {
  cas::Options opt;
  opt.n_servers = n_servers;
  opt.f = 1;
  opt.k = 1;
  opt.value_size = kValueBytes;
  opt.n_writers = 1;
  cas::System sys = cas::make_system(opt);
  sys.world.invoke(sys.writers[0],
                   {OpType::kWrite, enum_value(value_index, kValueBytes)});
  sys.world.invoke(sys.readers[0], {OpType::kRead, {}});
  return std::move(sys.world);
}

ExploreOptions full_options() { return ExploreOptions{}; }

ExploreOptions reduced_options() {
  ExploreOptions opt;
  opt.reduction.sleep_sets = true;
  opt.reduction.symmetry = true;
  opt.mem = MemBudget::parse("64M");
  return opt;
}

std::optional<std::string> terminal_check(const World& w) {
  Span span("consistency.terminal_check");
  if (w.oplog().responses_since(0) < 2) return "operation stuck";
  const CheckResult verdict =
      check_atomic(History::from_oplog(w.oplog()), enum_value(0, kValueBytes));
  if (!verdict.ok) return verdict.violation;
  return std::nullopt;
}

bool matches(const ExploreResult& r, const Pinned& p) {
  return r.ok && r.complete && r.states_visited == p.states &&
         r.terminal_states == p.terminals && r.transitions == p.transitions &&
         r.deduped == p.deduped;
}

std::string describe(const ExploreResult& r) {
  return "states=" + std::to_string(r.states_visited) +
         " terminals=" + std::to_string(r.terminal_states) +
         " transitions=" + std::to_string(r.transitions) +
         " deduped=" + std::to_string(r.deduped) + " ok=" + (r.ok ? "1" : "0") +
         " complete=" + (r.complete ? "1" : "0") + " " + r.violation;
}

// Samples the sim layer on every kSampleEvery-th visited state, on a World
// copy so the exploration itself is untouched. Its own COW traffic is
// tallied so the per-state copy figures can exclude it.
struct SimSampler {
  bool symmetry = false;
  std::size_t calls = 0;
  std::vector<double> copy_deliver, state_hash, deliverable, symmetry_key;
  std::uint64_t own_bytes = 0, own_detaches = 0, own_encodings = 0;

  std::optional<std::string> operator()(const World& w) {
    if (calls++ % kSampleEvery != 0) return std::nullopt;
    Span span("sim.sample", calls);
    const cowstats::Snapshot before = cowstats::snapshot();
    const std::int64_t t0 = now_ns();
    const std::vector<ChannelId> chans = w.deliverable_channels();
    const std::int64_t t1 = now_ns();
    deliverable.push_back(static_cast<double>(t1 - t0));
    if (!chans.empty()) {
      World copy = w;
      copy.deliver(chans.front());
      const std::int64_t t2 = now_ns();
      copy.state_hash();
      const std::int64_t t3 = now_ns();
      copy_deliver.push_back(static_cast<double>(t2 - t1));
      state_hash.push_back(static_cast<double>(t3 - t2));
    }
    if (symmetry) {
      const std::int64_t t4 = now_ns();
      symmetry::canonical_fingerprint(w);
      symmetry_key.push_back(static_cast<double>(now_ns() - t4));
    }
    const cowstats::Snapshot own = cowstats::snapshot() - before;
    own_bytes += own.bytes_copied;
    own_detaches += own.detaches();
    own_encodings += own.canonical_encodings;
    return std::nullopt;
  }
};

// Per-phase totals of the traced explorations.
struct PhaseTally {
  std::size_t states = 0, transitions = 0, deduped = 0, replay_steps = 0;
  std::size_t visited_bytes = 0, frontier_bytes = 0;
  std::size_t sleep_blocked = 0, symmetry_merged = 0;
  std::uint64_t bytes_copied = 0, detaches = 0, canonical_encodings = 0;

  void add(const ExploreResult& r, const cowstats::Snapshot& cow,
           const SimSampler& s) {
    states += r.states_visited;
    transitions += r.transitions;
    deduped += r.deduped;
    replay_steps += r.replay_steps;
    visited_bytes = std::max(visited_bytes, r.dedupe_bytes);
    frontier_bytes = std::max(frontier_bytes, r.frontier_bytes);
    sleep_blocked += r.sleep_blocked;
    symmetry_merged += r.symmetry_merged;
    bytes_copied += cow.bytes_copied - s.own_bytes;
    detaches += cow.detaches() - s.own_detaches;
    canonical_encodings += cow.canonical_encodings - s.own_encodings;
  }
};

}  // namespace

void run_explore(const RunConfig& cfg, Outcome& out) {
  const auto explore_checked = [&](std::size_t n, std::uint64_t value,
                                   const ExploreOptions& opt, const Pinned& pin,
                                   const StateCheck& invariant) {
    const World world = cas_world(n, value);
    ExploreResult r;
    {
      Span span("engine.frontier_search", value);
      r = engine::frontier_search(world, opt, invariant, terminal_check);
    }
    out.check(matches(r, pin), "CAS N=" + std::to_string(n) + " value " +
                                   std::to_string(value) + ": " + describe(r));
    return r;
  };
  const auto full = [&](std::size_t rep) {
    explore_checked(3, explore_value(cfg.seed, rep), full_options(), kFull, {});
  };
  const auto reduced = [&](std::size_t rep) {
    explore_checked(4, explore_value(cfg.seed, rep), reduced_options(), kReduced, {});
  };

  // Set-up: build both initial Worlds and run one full exploration, which
  // also grows the slab pools to their working size.
  out.set("setup_s", median_setup(5, [&] {
            cas_world(4, explore_value(cfg.seed, 0));
            full(0);
          }),
          "s");
  if (!cfg.trace) {
    const PhaseWalls w = alternate_for(cfg.seconds, 3, full, reduced);
    out.set("phase1_per_s", ratio(1, median(w.phase1)), "1/s");
    out.set("phase2_per_s", ratio(1, median(w.phase2)), "1/s");
    return;
  }

  PhaseTally full_tally, reduced_tally;
  std::vector<double> copy_deliver, state_hash, deliverable, symmetry_key;
  const auto traced_phase = [&](std::size_t n, std::uint64_t value,
                                const ExploreOptions& opt, const Pinned& pin,
                                PhaseTally& tally) {
    SimSampler sampler;
    sampler.symmetry = opt.reduction.symmetry;
    const cowstats::Snapshot before = cowstats::snapshot();
    const ExploreResult r = explore_checked(
        n, value, opt, pin, [&sampler](const World& w) { return sampler(w); });
    tally.add(r, cowstats::snapshot() - before, sampler);
    copy_deliver.insert(copy_deliver.end(), sampler.copy_deliver.begin(),
                        sampler.copy_deliver.end());
    state_hash.insert(state_hash.end(), sampler.state_hash.begin(),
                      sampler.state_hash.end());
    deliverable.insert(deliverable.end(), sampler.deliverable.begin(),
                       sampler.deliverable.end());
    symmetry_key.insert(symmetry_key.end(), sampler.symmetry_key.begin(),
                        sampler.symmetry_key.end());
  };
  const std::size_t units = traced_pairs(
      cfg.seconds,
      [&](std::size_t rep) {
        full(rep);
        reduced(rep);
      },
      [&](std::size_t rep) {
        const std::uint64_t value = explore_value(cfg.seed, rep);
        traced_phase(3, value, full_options(), kFull, full_tally);
        traced_phase(4, value, reduced_options(), kReduced, reduced_tally);
      },
      out);

  const std::vector<SpanRecord> spans = tracer().snapshot();
  const double n = static_cast<double>(units);
  const double states = static_cast<double>(full_tally.states + reduced_tally.states);
  const double transitions =
      static_cast<double>(full_tally.transitions + reduced_tally.transitions);
  out.set("engine.states_per_s", ratio(states / n, out.metrics["engine.self_s"].value),
          "1/s");
  out.set("engine.transitions_per_state", ratio(transitions, states), "ratio");
  out.set("engine.dedupe_hit_ratio",
          ratio(static_cast<double>(full_tally.deduped + reduced_tally.deduped),
                transitions),
          "ratio");
  out.set("engine.replay_steps",
          static_cast<double>(full_tally.replay_steps + reduced_tally.replay_steps) / n,
          "count");
  out.set("engine.visited_bytes",
          static_cast<double>(std::max(full_tally.visited_bytes, reduced_tally.visited_bytes)),
          "B");
  out.set("engine.frontier_bytes",
          static_cast<double>(
              std::max(full_tally.frontier_bytes, reduced_tally.frontier_bytes)),
          "B");
  out.set("engine.sleep_blocked", static_cast<double>(reduced_tally.sleep_blocked) / n,
          "count");
  out.set("engine.symmetry_merged",
          static_cast<double>(reduced_tally.symmetry_merged) / n, "count");
  out.set("sim.copy_deliver_ns", median(copy_deliver), "ns");
  out.set("sim.state_hash_ns", median(state_hash), "ns");
  out.set("sim.deliverable_channels_ns", median(deliverable), "ns");
  out.set("sim.symmetry_key_ns", median(symmetry_key), "ns");
  out.set("sim.bytes_copied_per_state",
          ratio(static_cast<double>(full_tally.bytes_copied + reduced_tally.bytes_copied),
                states),
          "B");
  out.set("sim.detaches_per_state",
          ratio(static_cast<double>(full_tally.detaches + reduced_tally.detaches), states),
          "ratio");
  // The full phase dedupes on the incremental hash: any canonical encoding
  // there is a regression of the zero-encodings contract.
  out.set("sim.canonical_encodings",
          static_cast<double>(full_tally.canonical_encodings) / n, "count");
  out.check(full_tally.canonical_encodings == 0,
            "full phase performs no canonical encodings");
  out.set("sim.slab_bytes_reserved", static_cast<double>(worldmem::reserved_bytes()),
          "B");
  out.set("consistency.terminal_check_s",
          span_seconds(spans, "consistency.terminal_check", units), "s");
}

}  // namespace perfbench

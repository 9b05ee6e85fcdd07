#include "fuzz/campaign.h"

#include <map>
#include <utility>

#include "common/check.h"
#include "common/hash.h"
#include "engine/scheduler.h"
#include "engine/thread_pool.h"
#include "fuzz/minimizer.h"
#include "sim/cow_stats.h"

namespace memu::fuzz {

std::uint64_t walk_seed_for(std::uint64_t campaign_seed, std::size_t walk) {
  return mix64(campaign_seed ^ mix64(static_cast<std::uint64_t>(walk) + 1));
}

std::uint64_t injection_seed_for(std::uint64_t walk_seed) {
  // Independent stream: the scheduler and the injector must not share
  // randomness, or scripted replay (which consumes none) would diverge.
  return mix64(walk_seed ^ 0x5fau * 0x9e3779b97f4a7c15ull);
}

FuzzSystem make_fuzz_system(const SystemSpec& spec) {
  const algo::Family& fam = algo::family(spec.algo);
  return {fam.build({spec.n_servers, spec.f, spec.k, spec.n_writers,
                     spec.n_readers, spec.value_size}),
          enum_value(0, spec.value_size)};
}

namespace {

// Per-worker-thread prototype cache: constructing a FuzzSystem from
// scratch re-runs process construction and channel-table setup for every
// walk, but all walks of a campaign share one spec — so each worker
// builds the prototype once and serves every further walk on that spec
// from a COW copy of it (World copies are pointer bumps). A copy is
// state-identical to a fresh build because make_fuzz_system is a pure
// function of the spec, so walk behavior — and therefore every pinned
// seed — is unchanged. cowstats meters the saved constructions.
const FuzzSystem& prototype_system(const SystemSpec& spec) {
  struct Cache {
    bool valid = false;
    SystemSpec spec;
    FuzzSystem sys;
  };
  static thread_local Cache cache;
  if (!cache.valid || cache.spec != spec) {
    cache.sys = make_fuzz_system(spec);
    cache.spec = spec;
    cache.valid = true;
    cowstats::note_fuzz_system_build();
  } else {
    cowstats::note_fuzz_system_reuse();
  }
  return cache.sys;
}

struct ClientState {
  bool busy = false;
  std::size_t issued = 0;
};

// When the scheduler cannot step (e.g. an active partition starves every
// quorum), the injector still gets a pre-step chance per retry — enough for
// heal/recover to restore liveness. Give up after this many fruitless
// retries and check whatever history exists.
constexpr std::size_t kStallGrace = 1'000;

// The core walk, shared verbatim by random campaigns and scripted replay —
// identical loop, identical scheduler policy, so a recorded trace replays
// the exact execution. `proto` is the cached prototype; the walk runs on
// a COW copy of it.
WalkResult run_walk(const FuzzSystem& proto, const SystemSpec& spec,
                    CheckKind check_kind, std::uint64_t walk_seed,
                    std::uint64_t max_steps, std::size_t writes_per_writer,
                    std::size_t reads_per_reader, Injector& injector) {
  FuzzSystem sys = proto;
  World& world = sys.world;

  Scheduler sched(Scheduler::Policy::kRandomReorder, walk_seed);
  sched.enable_metering();
  sched.set_pre_step_hook([&injector](World& w, std::uint64_t steps_taken) {
    injector.before_step(w, steps_taken);
  });

  std::map<NodeId, ClientState> state;
  for (const NodeId w : sys.writers) state[w] = {};
  for (const NodeId r : sys.readers) state[r] = {};

  const std::size_t want_responses =
      sys.writers.size() * writes_per_writer +
      sys.readers.size() * reads_per_reader;
  std::size_t responses = 0;
  std::size_t oplog_cursor = world.oplog().size();
  const auto never = [](const World&) { return false; };

  sched.observe(world);
  std::size_t stalled = 0;
  while (sched.steps_taken() < max_steps) {
    const OpLog& log = world.oplog();
    for (; oplog_cursor < log.size(); ++oplog_cursor) {
      const auto& e = log[oplog_cursor];
      const auto it = state.find(e.client);
      if (it == state.end()) continue;
      if (e.kind == OpEvent::Kind::kResponse) {
        it->second.busy = false;
        ++responses;
      }
    }
    if (responses >= want_responses) break;

    for (std::size_t i = 0; i < sys.writers.size(); ++i) {
      ClientState& cs = state[sys.writers[i]];
      if (cs.busy || cs.issued >= writes_per_writer) continue;
      const Value v = unique_value(static_cast<std::uint32_t>(i + 1),
                                   cs.issued + 1, spec.value_size);
      world.invoke(sys.writers[i], Invocation{OpType::kWrite, v});
      cs.busy = true;
      ++cs.issued;
    }
    for (const NodeId r : sys.readers) {
      ClientState& cs = state[r];
      if (cs.busy || cs.issued >= reads_per_reader) continue;
      world.invoke(r, Invocation{OpType::kRead, {}});
      cs.busy = true;
      ++cs.issued;
    }

    const std::uint64_t before = sched.steps_taken();
    sched.run_until(world, never, 1);
    if (sched.steps_taken() == before) {
      if (++stalled >= kStallGrace) break;
    } else {
      stalled = 0;
    }
  }

  // Absorb trailing responses.
  const OpLog& log = world.oplog();
  for (; oplog_cursor < log.size(); ++oplog_cursor) {
    const auto& e = log[oplog_cursor];
    if (state.find(e.client) == state.end()) continue;
    if (e.kind == OpEvent::Kind::kResponse) ++responses;
  }

  WalkResult r;
  r.walk_seed = walk_seed;
  r.completed = responses >= want_responses;
  r.steps = sched.steps_taken();
  r.injected = injector.events().size();
  r.skipped = injector.skipped();
  r.peak_total_value_bits = sched.storage_report().peak_total_value_bits;

  const History history = History::from_oplog(world.oplog());
  r.ops = history.size();
  r.check = run_check(check_kind, history, sys.initial);

  r.trace.spec = spec;
  r.trace.walk_seed = walk_seed;
  r.trace.max_steps = max_steps;
  r.trace.writes_per_writer = writes_per_writer;
  r.trace.reads_per_reader = reads_per_reader;
  r.trace.check = check_kind;
  r.trace.events = injector.events();
  r.trace.violation = r.check.violation;
  r.trace.first_divergence_op = r.check.first_divergence_op;
  return r;
}

}  // namespace

WalkResult replay_trace_with(const FuzzTrace& trace,
                             const std::vector<InjectedEvent>& events) {
  const FuzzSystem& proto = prototype_system(trace.spec);
  // Reusable replay buffer: the scripted injector owns its script, so one
  // per-thread vector round-trips through every probe — assign() reuses
  // its capacity, release_script() reclaims it. A ddmin run's thousands
  // of replays share a single script allocation per worker.
  static thread_local std::vector<InjectedEvent> script_buffer;
  script_buffer.assign(events.begin(), events.end());
  Injector injector(proto.servers, trace.spec.f, std::move(script_buffer));
  WalkResult r =
      run_walk(proto, trace.spec, trace.check, trace.walk_seed,
               trace.max_steps, trace.writes_per_writer,
               trace.reads_per_reader, injector);
  script_buffer = injector.release_script();
  r.trace.campaign_seed = trace.campaign_seed;
  r.trace.walk_index = trace.walk_index;
  r.walk_index = trace.walk_index;
  return r;
}

WalkResult replay_trace(const FuzzTrace& trace) {
  return replay_trace_with(trace, trace.events);
}

CampaignSummary run_campaign(const SystemSpec& spec, const FuzzPlan& plan) {
  MEMU_CHECK_MSG(plan.mix.sum() <= 1.0, "fault mix probabilities sum past 1");
  if (plan.mem.bounded()) {
    // Validate the budget against the concurrent-walk envelope up front —
    // fail before walk 0, not at an OOM kill hours in. 4 MiB bounds a
    // walk's transient working set (World replica, history log, minimizer
    // scratch) with a wide margin for every shipped spec.
    constexpr std::size_t kWalkEnvelopeBytes = 4ull << 20;
    const std::size_t workers =
        std::min(std::max<std::size_t>(1, plan.threads), plan.walks);
    const std::size_t need = workers * kWalkEnvelopeBytes;
    MEMU_CHECK_MSG(
        plan.mem.total >= need,
        "--mem " << plan.mem.to_string() << " cannot cover " << workers
                 << " concurrent walks (~4 MiB envelope each): rerun with "
                    "--mem >= "
                 << MemBudget{need}.to_string() << " or fewer --threads");
  }
  CampaignSummary summary;
  summary.spec = spec;
  summary.plan = plan;

  // Every walk is a pure function of (spec, plan, walk_seed): dispatch
  // them onto the work-stealing pool and write each result into its own
  // slot. Violating walks minimize inside their own task (the minimizer
  // runs serially there — walk-level parallelism already owns the cores).
  std::vector<WalkResult> walks(plan.walks);
  engine::parallel_for(plan.threads, plan.walks, [&](std::size_t i) {
    const std::uint64_t walk_seed = walk_seed_for(plan.seed, i);
    const FuzzSystem& proto = prototype_system(spec);
    Injector injector(proto.servers, spec.f, plan.mix,
                      injection_seed_for(walk_seed));
    WalkResult r =
        run_walk(proto, spec, plan.check, walk_seed, plan.max_steps,
                 plan.writes_per_writer, plan.reads_per_reader, injector);
    r.walk_index = i;
    r.trace.campaign_seed = plan.seed;
    r.trace.walk_index = i;

    if (!r.check.ok && plan.minimize) {
      const MinimizeResult m = minimize(r.trace);
      if (m.still_violates) r.trace = m.trace;
    }
    walks[i] = std::move(r);
  });

  // Merge in walk_index order: aggregates — and therefore to_json() — are
  // byte-identical to the serial run for any thread count.
  summary.walks.reserve(plan.walks);
  for (WalkResult& r : walks) {
    if (!r.check.ok) ++summary.violations;
    if (r.completed) ++summary.completed_walks;
    summary.injected_total += r.injected;
    summary.steps_total += r.steps;
    summary.walks.push_back(std::move(r));
  }
  return summary;
}

std::string CampaignSummary::to_json() const {
  // Streamed into one reserved std::string: every field is an unsigned
  // integer, a bool, or a known-clean name, so append + std::to_string
  // produces bytes identical to the former ostringstream (without its
  // per-chunk reallocation churn). ~96 bytes covers a passing walk row;
  // violating rows stay under the headroom the fixed part leaves.
  std::string out;
  out.reserve(512 + walks.size() * 160);
  const auto num = [&out](const char* key, std::uint64_t v) {
    out += ", \"";
    out += key;
    out += "\": ";
    out += std::to_string(v);
  };
  out += "{\n  \"spec\": {\"algo\": \"";
  out += spec.algo;
  out += '"';
  num("n_servers", spec.n_servers);
  num("f", spec.f);
  num("k", spec.k);
  num("n_writers", spec.n_writers);
  num("n_readers", spec.n_readers);
  num("value_size", spec.value_size);
  out += "},\n  \"plan\": {\"seed\": ";
  out += std::to_string(plan.seed);
  num("walks", plan.walks);
  num("max_steps", plan.max_steps);
  num("writes_per_writer", plan.writes_per_writer);
  num("reads_per_reader", plan.reads_per_reader);
  out += ", \"check\": \"";
  out += check_kind_name(plan.check);
  out += "\", \"minimize\": ";
  out += plan.minimize ? "true" : "false";
  out += "},\n  \"violations\": ";
  out += std::to_string(violations);
  out += ",\n  \"completed_walks\": ";
  out += std::to_string(completed_walks);
  out += ",\n  \"injected_total\": ";
  out += std::to_string(injected_total);
  out += ",\n  \"steps_total\": ";
  out += std::to_string(steps_total);
  out += ",\n  \"walks\": [";
  for (std::size_t i = 0; i < walks.size(); ++i) {
    const WalkResult& w = walks[i];
    out += i == 0 ? "\n    " : ",\n    ";
    out += "{\"walk\": ";
    out += std::to_string(w.walk_index);
    num("seed", w.walk_seed);
    out += ", \"completed\": ";
    out += w.completed ? "true" : "false";
    num("steps", w.steps);
    num("injected", w.injected);
    num("ops", w.ops);
    out += ", \"ok\": ";
    out += w.check.ok ? "true" : "false";
    if (!w.check.ok) {
      num("minimized_events", w.trace.events.size());
      if (w.check.first_divergence_op.has_value())
        num("first_divergence_op", *w.check.first_divergence_op);
    }
    out += '}';
  }
  out += walks.empty() ? "]\n" : "\n  ]\n";
  out += "}\n";
  return out;
}

}  // namespace memu::fuzz

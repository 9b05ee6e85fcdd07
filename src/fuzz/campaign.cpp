#include "fuzz/campaign.h"

#include <utility>

#include "common/check.h"
#include "common/hash.h"
#include "engine/scheduler.h"
#include "engine/thread_pool.h"
#include "fuzz/minimizer.h"
#include "sim/cow_stats.h"
#include "workload/driver.h"

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

// The core walk, shared verbatim by random campaigns and scripted replay —
// the closed-loop client driver with the injector as its pre-step hook and
// the same scheduler policy, so a recorded trace replays the exact
// execution. `proto` is the cached prototype; the walk runs on a COW copy
// of it.
WalkResult run_walk(const FuzzSystem& proto, const SystemSpec& spec,
                    CheckKind check_kind, std::uint64_t walk_seed,
                    std::uint64_t max_steps, std::size_t writes_per_writer,
                    std::size_t reads_per_reader, Injector& injector) {
  FuzzSystem sys = proto;
  workload::Options opt;
  opt.writes_per_writer = writes_per_writer;
  opt.reads_per_reader = reads_per_reader;
  opt.value_size = spec.value_size;
  opt.seed = walk_seed;
  opt.policy = Scheduler::Policy::kRandomReorder;
  opt.max_steps = max_steps;
  opt.before_step = [&injector](World& w, std::uint64_t steps_taken) {
    injector.before_step(w, steps_taken);
  };
  const workload::RunResult run =
      workload::run(sys.world, sys.writers, sys.readers, opt);

  WalkResult r;
  r.walk_seed = walk_seed;
  r.completed = run.completed;
  r.steps = run.steps;
  r.injected = injector.events().size();
  r.skipped = injector.skipped();
  r.peak_total_value_bits = run.storage.peak_total_value_bits;
  r.ops = run.history.size();
  r.check = run_check(check_kind, run.history, sys.initial);

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
  // them through parallel_for and write each result into its own
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

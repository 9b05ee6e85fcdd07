// fuzz-mix: single-threaded fault-injection campaigns.
//
//   phase 1 (campaigns): abd, cas, ldr and strip under FaultMix::standard()
//                        with 6 writes and 6 reads per client (~24-op
//                        histories); every walk must pass its check.
//   phase 2 (shrink):    abd-regular checked atomic, which violates on about
//                        one walk in fifteen; find the violations, minimize
//                        each trace and confirm the minimized trace still
//                        violates.
//
// Walks are linear random walks through `sim` with no branching, dedupe or
// state hashing: the checker, injector and replay-heavy minimizer get a
// large share of the time and the visited set none, so a visited-set
// change must leave this workload flat.
#include <map>
#include <string>
#include <vector>

#include "bench.h"
#include "consistency/checker.h"
#include "fuzz/campaign.h"
#include "fuzz/minimizer.h"
#include "inputs.h"
#include "sim/cow_stats.h"
#include "workload/driver.h"

namespace perfbench {
namespace {

using namespace memu;
using namespace memu::fuzz;

const std::vector<std::string> kAlgos = {"abd", "cas", "ldr", "strip"};
constexpr std::size_t kCampaignWalks = 128;  // per algorithm per repetition
constexpr std::size_t kShrinkWalks = 512;
constexpr std::size_t kReplicaEvery = 16;    // traced: one replica per 16 walks

// The memu_fuzz default specs: N=5, f=2, 2 writers and 2 readers, except
// LDR, whose SWSR-regular guarantee needs a single writer.
SystemSpec spec_for(const std::string& algo) {
  SystemSpec spec;
  spec.algo = algo;
  if (algo == "ldr") spec.n_writers = 1;
  return spec;
}

// The shrink phase's violation source: one-phase (regular) ABD reads checked
// atomic on N=3, f=1 with one writer and four readers, where about one walk
// in fifteen exhibits a new-old inversion.
SystemSpec shrink_spec() {
  SystemSpec spec;
  spec.algo = "abd-regular";
  spec.n_servers = 3;
  spec.f = 1;
  spec.n_writers = 1;
  spec.n_readers = 4;
  return spec;
}

FuzzPlan plan_for(const SystemSpec& spec, std::uint64_t seed, std::size_t walks) {
  FuzzPlan plan;
  plan.seed = seed;
  plan.walks = walks;
  plan.writes_per_writer = 6;
  plan.reads_per_reader = 6;
  plan.check = spec.default_check();
  plan.mix = FaultMix::standard();
  plan.minimize = false;
  plan.threads = 1;
  return plan;
}

// Traced only: re-drives every kReplicaEvery-th walk of a campaign as a
// fault-free replica (same spec, quotas and walk seed, through
// workload::run) and times the drive and an atomicity check of its
// history. An estimate of the walk's own drive and check cost, which
// run_campaign does not expose.
void drive_replicas(const SystemSpec& spec, const FuzzPlan& plan) {
  for (std::size_t w = 0; w < plan.walks; w += kReplicaEvery) {
    FuzzSystem sys = make_fuzz_system(spec);
    workload::Options opt;
    opt.writes_per_writer = plan.writes_per_writer;
    opt.reads_per_reader = plan.reads_per_reader;
    opt.value_size = spec.value_size;
    opt.seed = walk_seed_for(plan.seed, w);
    opt.policy = Scheduler::Policy::kRandomReorder;
    opt.max_steps = plan.max_steps;
    workload::RunResult run;
    {
      Span span("fuzz.replica_drive", w);
      run = workload::run(sys.world, sys.writers, sys.readers, opt);
    }
    Span span("consistency.check_atomic", w);
    check_atomic(run.history, sys.initial);
  }
}

struct ShrinkTally {
  std::size_t shrinks = 0, probes = 0;
};

double op_seconds(const std::vector<SpanRecord>& spans, const std::string& name,
                  std::uint64_t op) {
  double ns = 0;
  for (const SpanRecord& s : spans)
    if (s.name == name && s.op == op) ns += static_cast<double>(s.end - s.start);
  return ns * 1e-9;
}

}  // namespace

void run_fuzz(const RunConfig& cfg, Outcome& out) {
  std::uint64_t steps_total = 0;
  cowstats::Snapshot campaign_cow;
  // Runs the four campaigns of repetition `rep`; returns their summaries'
  // JSON, which must not depend on whether the run is traced.
  const auto campaigns = [&](std::size_t rep, std::size_t walks) {
    std::string summaries;
    for (std::size_t a = 0; a < kAlgos.size(); ++a) {
      const SystemSpec spec = spec_for(kAlgos[a]);
      const FuzzPlan plan = plan_for(spec, fuzz_campaign_seed(cfg.seed, rep, a), walks);
      const cowstats::Snapshot before = cowstats::snapshot();
      CampaignSummary s;
      {
        Span span("fuzz.run_campaign", a);
        s = run_campaign(spec, plan);
      }
      if (tracer().enabled()) {
        const cowstats::Snapshot d = cowstats::snapshot() - before;
        campaign_cow.fuzz_system_builds += d.fuzz_system_builds;
        campaign_cow.fuzz_system_reuses += d.fuzz_system_reuses;
        steps_total += s.steps_total;
        drive_replicas(spec, plan);
      }
      out.check(s.violations == 0, kAlgos[a] + " campaign seed " +
                                       std::to_string(plan.seed) + ": " +
                                       std::to_string(s.violations) + " violations");
      summaries += s.to_json();
    }
    return summaries;
  };
  const auto shrink = [&](std::size_t rep, ShrinkTally& tally) {
    const SystemSpec spec = shrink_spec();
    FuzzPlan plan = plan_for(spec, fuzz_shrink_seed(cfg.seed, rep), kShrinkWalks);
    plan.check = CheckKind::kAtomic;
    CampaignSummary s;
    {
      Span span("fuzz.find", rep);
      s = run_campaign(spec, plan);
    }
    std::string traces;
    for (const WalkResult& walk : s.walks) {
      if (walk.check.ok) continue;
      MinimizeResult m;
      {
        Span span("fuzz.minimize", walk.walk_index);
        m = minimize(walk.trace, 1);
      }
      const WalkResult replay = replay_trace(m.trace);
      out.check(m.still_violates && !replay.check.ok,
                "minimized abd-regular walk " + std::to_string(walk.walk_index) +
                    " still violates under replay_trace");
      ++tally.shrinks;
      tally.probes += m.tests_run;
      traces += trace_to_json(m.trace);
    }
    return s.to_json() + traces;
  };

  // Set-up: build every system and warm the prototype caches with a short
  // campaign per algorithm.
  out.set("setup_s", median_setup(5, [&] {
            for (const std::string& algo : kAlgos) make_fuzz_system(spec_for(algo));
            campaigns(0, 64);
          }),
          "s");

  if (!cfg.trace) {
    ShrinkTally tally;
    const PhaseWalls w = alternate_for(
        cfg.seconds, 3, [&](std::size_t rep) { campaigns(rep, kCampaignWalks); },
        [&](std::size_t rep) { shrink(rep, tally); });
    double shrink_seconds = 0;
    for (const double s : w.phase2) shrink_seconds += s;
    out.check(tally.shrinks > 0, "the shrink phase finds a violation");
    out.set("phase1_per_s",
            ratio(static_cast<double>(kAlgos.size() * kCampaignWalks), median(w.phase1)),
            "1/s");
    out.set("phase2_per_s", ratio(static_cast<double>(tally.shrinks), shrink_seconds),
            "1/s");
    return;
  }

  std::map<std::size_t, std::string> untraced_json;
  ShrinkTally untraced_tally, traced_tally;
  const std::size_t units = traced_pairs(
      cfg.seconds,
      [&](std::size_t rep) {
        untraced_json[rep] =
            campaigns(rep, kCampaignWalks) + shrink(rep, untraced_tally);
      },
      [&](std::size_t rep) {
        const std::string json =
            campaigns(rep, kCampaignWalks) + shrink(rep, traced_tally);
        out.check(json == untraced_json[rep],
                  "summary JSON is byte-identical traced and untraced");
      },
      out);

  out.check(traced_tally.shrinks > 0, "the shrink phase finds a violation");
  const std::vector<SpanRecord> spans = tracer().snapshot();
  const double n = static_cast<double>(units);
  double campaign_seconds = 0;
  for (std::size_t a = 0; a < kAlgos.size(); ++a) {
    const double secs = op_seconds(spans, "fuzz.run_campaign", a);
    campaign_seconds += secs;
    out.set("fuzz.campaign_s." + kAlgos[a], secs / n, "s");
  }
  out.set("fuzz.steps_per_s", ratio(static_cast<double>(steps_total), campaign_seconds),
          "1/s");
  out.set("fuzz.drive_us", median(span_durations_ns(spans, "fuzz.replica_drive")) / 1e3,
          "us");
  out.set("consistency.check_us",
          median(span_durations_ns(spans, "consistency.check_atomic")) / 1e3, "us");
  out.set("fuzz.prototype_reuse_ratio",
          ratio(static_cast<double>(campaign_cow.fuzz_system_reuses),
                static_cast<double>(campaign_cow.fuzz_system_builds)),
          "ratio");
  const double minimize_seconds = span_seconds(spans, "fuzz.minimize", 1);
  out.set("fuzz.find_s", span_seconds(spans, "fuzz.find", units), "s");
  out.set("fuzz.minimize_s", minimize_seconds / n, "s");
  out.set("fuzz.probes_per_shrink",
          ratio(static_cast<double>(traced_tally.probes),
                static_cast<double>(traced_tally.shrinks)),
          "ratio");
  out.set("fuzz.probes_per_s",
          ratio(static_cast<double>(traced_tally.probes), minimize_seconds), "1/s");
}

}  // namespace perfbench

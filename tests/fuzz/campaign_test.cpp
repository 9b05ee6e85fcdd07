// Campaign engine tests: byte-identical determinism, a pinned violating
// campaign on the intentionally-regular ABD variant, and exact replay of
// recorded counterexamples.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "fuzz/campaign.h"

namespace memu::fuzz {
namespace {

// A pinned configuration where walk 28 of campaign seed 2 produces a real
// atomicity violation: abd-regular serves one-phase (regular-only) reads,
// and the atomic checker correctly rejects the resulting new/old read
// inversion. Everything here is load-bearing for the pin — do not tweak
// without re-finding a violating (seed, walk).
SystemSpec violating_spec() {
  SystemSpec spec;
  spec.algo = "abd-regular";
  spec.n_servers = 5;
  spec.f = 2;
  spec.n_writers = 2;
  spec.n_readers = 3;
  spec.value_size = 60;
  return spec;
}

FuzzPlan violating_plan() {
  FuzzPlan plan;
  plan.seed = 2;
  plan.walks = 29;  // violating walk is index 28
  plan.max_steps = 20'000;
  plan.writes_per_writer = 4;
  plan.reads_per_reader = 6;
  plan.check = CheckKind::kAtomic;
  plan.mix = FaultMix::standard();
  plan.minimize = false;
  return plan;
}

TEST(Campaign, SummariesAreByteIdenticalAcrossRuns) {
  SystemSpec spec;
  spec.algo = "abd";
  FuzzPlan plan;
  plan.seed = 11;
  plan.walks = 6;
  plan.max_steps = 10'000;
  const CampaignSummary a = run_campaign(spec, plan);
  const CampaignSummary b = run_campaign(spec, plan);
  EXPECT_EQ(a.to_json(), b.to_json());
  ASSERT_EQ(a.walks.size(), b.walks.size());
  for (std::size_t i = 0; i < a.walks.size(); ++i)
    EXPECT_EQ(trace_to_json(a.walks[i].trace), trace_to_json(b.walks[i].trace));
}

TEST(Campaign, SummariesAreByteIdenticalAcrossThreadCounts) {
  // FuzzPlan::threads is a wall-clock knob only: each walk is a pure
  // function of (spec, plan, walk_seed) and results merge in walk_index
  // order, so the summary and every trace render byte-identically for any
  // worker count.
  SystemSpec spec;
  spec.algo = "abd";
  FuzzPlan plan;
  plan.seed = 7;
  plan.walks = 12;
  plan.max_steps = 10'000;
  plan.threads = 1;
  const CampaignSummary serial = run_campaign(spec, plan);
  const std::string expect = serial.to_json();
  for (const std::size_t threads : {2, 4, 8}) {
    FuzzPlan p = plan;
    p.threads = threads;
    const CampaignSummary s = run_campaign(spec, p);
    EXPECT_EQ(s.to_json(), expect) << "threads=" << threads;
    ASSERT_EQ(s.walks.size(), serial.walks.size());
    for (std::size_t i = 0; i < s.walks.size(); ++i)
      EXPECT_EQ(trace_to_json(s.walks[i].trace),
                trace_to_json(serial.walks[i].trace))
          << "threads=" << threads << " walk=" << i;
  }
}

TEST(Campaign, MemBudgetIsAnExecutionKnobNotAPlanInput) {
  // Like threads, --mem must never leak into the summary or the traces: a
  // budgeted campaign renders byte-identically to an unbudgeted one.
  SystemSpec spec;
  spec.algo = "abd";
  FuzzPlan plan;
  plan.seed = 7;
  plan.walks = 6;
  plan.max_steps = 10'000;
  const CampaignSummary bare = run_campaign(spec, plan);
  FuzzPlan budgeted = plan;
  budgeted.mem = MemBudget::parse("256M");
  const CampaignSummary b = run_campaign(spec, budgeted);
  EXPECT_EQ(bare.to_json(), b.to_json());
}

TEST(Campaign, InsufficientMemBudgetFailsBeforeWalkZero) {
  // 4 threads need the 4 MiB-per-walk envelope each; 1 MiB total must be
  // rejected up front with a sizing hint in --mem terms.
  SystemSpec spec;
  spec.algo = "abd";
  FuzzPlan plan;
  plan.walks = 8;
  plan.threads = 4;
  plan.mem = MemBudget::parse("1M");
  try {
    run_campaign(spec, plan);
    FAIL() << "expected the budget gate to throw";
  } catch (const ContractError& e) {
    EXPECT_NE(std::string(e.what()).find("--mem"), std::string::npos)
        << e.what();
  }
}

TEST(Campaign, ParallelCampaignMinimizesIdentically) {
  // The pinned violating campaign with minimization ON, serial vs 4
  // workers: in-walk minimization must not perturb the byte-identity
  // contract.
  FuzzPlan serial_plan = violating_plan();
  serial_plan.minimize = true;
  FuzzPlan parallel_plan = serial_plan;
  parallel_plan.threads = 4;
  const CampaignSummary a = run_campaign(violating_spec(), serial_plan);
  const CampaignSummary b = run_campaign(violating_spec(), parallel_plan);
  EXPECT_EQ(a.to_json(), b.to_json());
  ASSERT_GE(b.violations, 1u);
  EXPECT_TRUE(b.walks[28].trace.events.empty());
}

TEST(Campaign, DifferentSeedsDiverge) {
  SystemSpec spec;
  spec.algo = "abd";
  FuzzPlan plan;
  plan.seed = 11;
  plan.walks = 4;
  FuzzPlan plan2 = plan;
  plan2.seed = 12;
  EXPECT_NE(run_campaign(spec, plan).to_json(),
            run_campaign(spec, plan2).to_json());
}

TEST(Campaign, CorrectAbdStaysAtomicUnderFaults) {
  SystemSpec spec;
  spec.algo = "abd";
  FuzzPlan plan;
  plan.seed = 5;
  plan.walks = 8;
  const CampaignSummary s = run_campaign(spec, plan);
  EXPECT_EQ(s.violations, 0u) << s.to_json();
  EXPECT_GT(s.injected_total, 0u);  // faults actually fired
}

TEST(Campaign, RegularOnlyAbdViolatesAtomicityAtPinnedSeed) {
  const CampaignSummary s = run_campaign(violating_spec(), violating_plan());
  ASSERT_GE(s.violations, 1u);
  const WalkResult& w = s.walks[28];
  ASSERT_FALSE(w.check.ok);
  EXPECT_TRUE(w.completed);
  // The checker localizes the first divergence deterministically.
  ASSERT_TRUE(w.check.first_divergence_op.has_value());
  EXPECT_EQ(*w.check.first_divergence_op, 12u);
}

TEST(Campaign, ReplayReproducesTheRecordedViolation) {
  const CampaignSummary s = run_campaign(violating_spec(), violating_plan());
  ASSERT_GE(s.violations, 1u);
  const FuzzTrace& trace = s.walks[28].trace;

  const WalkResult replayed = replay_trace(trace);
  ASSERT_FALSE(replayed.check.ok);
  EXPECT_EQ(replayed.check.violation, s.walks[28].check.violation);
  EXPECT_EQ(replayed.check.first_divergence_op,
            s.walks[28].check.first_divergence_op);
  EXPECT_EQ(replayed.steps, s.walks[28].steps);
  EXPECT_EQ(replayed.trace.events, trace.events);
  EXPECT_EQ(replayed.skipped, 0u);  // the script applies verbatim
}

TEST(Campaign, MakeFuzzSystemRejectsUnknownAlgo) {
  SystemSpec spec;
  spec.algo = "paxos";
  // The error names the bad algorithm and every registered one.
  try {
    make_fuzz_system(spec);
    ADD_FAILURE() << "no std::runtime_error for an unknown algo";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("'paxos'"), std::string::npos) << what;
    for (const algo::Family& fam : algo::families())
      EXPECT_NE(what.find(fam.name), std::string::npos) << fam.name;
  }
}

TEST(Campaign, WalkSeedsAreStable) {
  // The derivation is part of the replay contract: changing it would orphan
  // every recorded trace.
  EXPECT_EQ(walk_seed_for(2, 28), 15180526183879991717ull);
  EXPECT_NE(walk_seed_for(1, 0), walk_seed_for(1, 1));
  EXPECT_NE(injection_seed_for(7), walk_seed_for(7, 0));
}

}  // namespace
}  // namespace memu::fuzz

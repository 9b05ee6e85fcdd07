// Slow fuzz scaling soak (nightly, label `slow`): larger campaigns across
// every supported algorithm and thread count, byte-compared against the
// serial run. The tier1 determinism tests cover the same contract on small
// configurations; this soak gives parallel_for enough walks per campaign
// for prototype-cache churn and in-walk minimization to actually
// interleave.
#include <gtest/gtest.h>

#include <string>

#include "fuzz/campaign.h"

namespace memu::fuzz {
namespace {

FuzzPlan soak_plan(std::uint64_t seed) {
  FuzzPlan plan;
  plan.seed = seed;
  plan.walks = 64;
  plan.max_steps = 20'000;
  plan.writes_per_writer = 3;
  plan.reads_per_reader = 3;
  return plan;
}

TEST(CampaignScaling, EveryAlgoIsByteIdenticalAcrossThreadCounts) {
  for (const char* algo : {"abd", "cas", "ldr", "strip"}) {
    SystemSpec spec;
    spec.algo = algo;
    if (spec.algo == "ldr") spec.n_writers = 1;  // LDR checker is SW
    FuzzPlan plan = soak_plan(21);
    const std::string serial = run_campaign(spec, plan).to_json();
    for (const std::size_t threads : {2, 4, 8}) {
      plan.threads = threads;
      EXPECT_EQ(run_campaign(spec, plan).to_json(), serial)
          << algo << " threads=" << threads;
    }
  }
}

TEST(CampaignScaling, MinimizingCampaignIsByteIdenticalAtEightThreads) {
  // The violation-rich configuration: every violating walk also runs the
  // minimizer inside its worker, so this covers nested replay across
  // threads.
  SystemSpec spec;
  spec.algo = "abd-regular";
  spec.n_servers = 5;
  spec.f = 2;
  spec.n_writers = 2;
  spec.n_readers = 3;
  spec.value_size = 60;
  FuzzPlan plan = soak_plan(2);
  plan.writes_per_writer = 4;
  plan.reads_per_reader = 6;
  plan.check = CheckKind::kAtomic;
  plan.minimize = true;
  const CampaignSummary serial = run_campaign(spec, plan);
  EXPECT_GE(serial.violations, 1u);
  plan.threads = 8;
  EXPECT_EQ(run_campaign(spec, plan).to_json(), serial.to_json());
}

}  // namespace
}  // namespace memu::fuzz

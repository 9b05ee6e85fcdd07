// TSan smoke for engine::parallel_for through its busiest client: a
// 4-thread fuzz campaign, checked byte-for-byte against the serial
// summary. Built as a plain binary (no gtest) so it can be compiled
// standalone with -fsanitize=thread; exits non-zero on any mismatch.
#include <cstdio>
#include <string>

#include "fuzz/campaign.h"

int main() {
  // 4 workers race over the walk indices (and the per-thread prototype
  // cache and replay buffers) while the summary must stay byte-identical
  // to the serial run.
  memu::fuzz::SystemSpec spec;
  spec.algo = "abd";
  memu::fuzz::FuzzPlan plan;
  plan.seed = 13;
  plan.walks = 24;
  plan.max_steps = 10'000;
  const std::string serial_json = memu::fuzz::run_campaign(spec, plan).to_json();
  plan.threads = 4;
  const std::string parallel_json =
      memu::fuzz::run_campaign(spec, plan).to_json();
  if (parallel_json != serial_json) {
    std::fprintf(stderr,
                 "fuzz campaign summary diverged between 1 and 4 threads\n");
    return 1;
  }
  std::printf("tsan smoke ok: 4-thread campaign byte-identical\n");
  return 0;
}

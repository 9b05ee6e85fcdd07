// Unit tests for the benchmark's own logic: order statistics, zero-safe
// ratios, span self time, and the seed -> input generators.
#include <gtest/gtest.h>

#include <set>

#include "inputs.h"
#include "stats.h"

namespace perfbench {
namespace {

TEST(Stats, MedianOfOddAndEvenCounts) {
  EXPECT_EQ(median({}), 0);
  EXPECT_EQ(median({7}), 7);
  EXPECT_EQ(median({3, 1, 2}), 2);
  EXPECT_EQ(median({4, 1, 3, 2}), 2.5);
}

TEST(Stats, NearestRankPercentile) {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  EXPECT_EQ(percentile(v, 50), 50);
  EXPECT_EQ(percentile(v, 99), 99);
  EXPECT_EQ(percentile(v, 100), 100);
  EXPECT_EQ(percentile(v, 0), 1);
  EXPECT_EQ(percentile({5}, 99), 5);
  EXPECT_EQ(percentile({}, 50), 0);
}

TEST(Stats, SupportedPercentileNeedsTenSamplesBeyond) {
  EXPECT_EQ(supported_percentile(1000), 99);  // 10 beyond p99
  EXPECT_EQ(supported_percentile(999), 95);
  EXPECT_EQ(supported_percentile(200), 95);
  EXPECT_EQ(supported_percentile(100), 90);
  EXPECT_EQ(supported_percentile(40), 75);
  EXPECT_EQ(supported_percentile(5), 50);
}

TEST(Stats, RatioWithZeroDenominatorIsZero) {
  EXPECT_EQ(ratio(5, 0), 0);
  EXPECT_EQ(ratio(0, 0), 0);
  EXPECT_EQ(ratio(6, 3), 2);
}

TEST(Stats, UnionLengthMergesOverlapsAndClips) {
  EXPECT_EQ(union_length({}, 0, 100), 0);
  EXPECT_EQ(union_length({{10, 20}, {15, 30}, {40, 50}}, 0, 100), 30);
  EXPECT_EQ(union_length({{10, 20}, {12, 14}}, 0, 100), 10);  // nested
  EXPECT_EQ(union_length({{20, 30}, {10, 25}}, 0, 100), 20);  // unsorted
  EXPECT_EQ(union_length({{0, 50}}, 10, 40), 30);              // clipped
  EXPECT_EQ(union_length({{60, 70}}, 10, 40), 0);              // outside
}

TEST(Stats, SelfTimeSubtractsUnionOfOverlappingChildren) {
  // A 100 ns parent with two children recorded on different threads that
  // overlap by 10 ns: the children cover 50 ns, not 60.
  const std::vector<SpanRecord> spans = {
      {"sweep.run_sweep", 0, 100, -1, 0},
      {"sweep.sink_row", 10, 40, 0, 1},
      {"sweep.sink_row", 30, 60, 0, 2},
      {"workload.parked", 35, 45, 2, 3},  // grandchild: not the parent's child
  };
  const std::vector<std::int64_t> self = self_times(spans);
  EXPECT_EQ(self[0], 50);
  EXPECT_EQ(self[1], 30);
  EXPECT_EQ(self[2], 20);
  EXPECT_EQ(self[3], 10);
  const auto by_layer = self_seconds_by_layer(spans);
  EXPECT_DOUBLE_EQ(by_layer.at("sweep"), 100e-9);
  EXPECT_DOUBLE_EQ(by_layer.at("workload"), 10e-9);
}

TEST(Stats, UnattributedIsWallNotCoveredByTopLevelSpans) {
  const std::vector<SpanRecord> spans = {
      {"engine.frontier_search", 10, 50, -1, 0},
      {"consistency.terminal_check", 20, 30, 0, 0},
      {"fuzz.run_campaign", 40, 70, -1, 1},
  };
  EXPECT_EQ(unattributed_ns(spans, 0, 100), 100 - 60);
}

TEST(Inputs, GeneratorsAreDeterministicFunctionsOfTheSeed) {
  for (const std::uint64_t seed : {1ull, 7ull, 12345ull}) {
    EXPECT_EQ(explore_value(seed, 3), explore_value(seed, 3));
    EXPECT_EQ(fuzz_campaign_seed(seed, 2, 1), fuzz_campaign_seed(seed, 2, 1));
    EXPECT_EQ(fuzz_shrink_seed(seed, 4), fuzz_shrink_seed(seed, 4));
    EXPECT_EQ(sweep_grid(seed), sweep_grid(seed));
    EXPECT_EQ(crash_subset(seed, 2, 3, 5, 2), crash_subset(seed, 2, 3, 5, 2));
  }
  EXPECT_NE(explore_value(1, 0), explore_value(2, 0));
  EXPECT_NE(explore_value(1, 0), explore_value(1, 1));
  EXPECT_NE(fuzz_campaign_seed(1, 0, 0), fuzz_campaign_seed(1, 0, 1));
  EXPECT_EQ(sweep_grid(1), sweep_grid(1));
}

TEST(Inputs, GeneratedInputsStayInRange) {
  std::set<std::size_t> starts;
  for (std::uint64_t seed = 0; seed < 500; ++seed) {
    EXPECT_NE(explore_value(seed, seed), 0u);  // 0 is the initial value
    const std::size_t s = sweep_logv_start(seed);
    EXPECT_GE(s, 1u);
    EXPECT_LE(s, 47u);  // keeps every logV <= 96: value_size stays 12
    starts.insert(s);
    const auto crash = crash_subset(seed, 0, seed, 5, 2);
    ASSERT_EQ(crash.size(), 2u);
    EXPECT_LT(crash[0], crash[1]);
    EXPECT_LT(crash[1], 5u);
  }
  EXPECT_GT(starts.size(), 40u);
}

TEST(Inputs, CrashSubsetsCycleThroughEverySubset) {
  EXPECT_EQ(f_subsets(5, 2).size(), 10u);
  EXPECT_EQ(f_subsets(4, 1).size(), 4u);
  EXPECT_EQ(f_subsets(3, 1).front(), (std::vector<std::size_t>{0}));
  for (const std::uint64_t seed : {1ull, 99ull}) {
    std::set<std::vector<std::size_t>> seen;
    for (std::uint64_t rep = 0; rep < 10; ++rep) seen.insert(crash_subset(seed, 4, rep, 5, 2));
    EXPECT_EQ(seen.size(), 10u);
  }
}

}  // namespace
}  // namespace perfbench

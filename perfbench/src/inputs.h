// Seed -> input generators. Every input a workload feeds the program is a
// pure function of (seed, index), so the same seed gives the same inputs
// however many repetitions fit into a run.
#pragma once

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <string>
#include <vector>

namespace perfbench {

inline std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// Independent 64-bit draw number `index` of stream `stream` under `seed`.
inline std::uint64_t draw(std::uint64_t seed, std::uint64_t stream,
                          std::uint64_t index) {
  return splitmix64(splitmix64(seed ^ splitmix64(stream)) + index);
}

enum Stream : std::uint64_t {
  kExploreValue = 1,
  kFuzzCampaign = 2,
  kFuzzShrink = 3,
  kSweepLogV = 4,
  kCrashSet = 5,
};

// explore-cas: the index fed to enum_value() for the write of repetition
// `rep`. Never 0, which is the initial value v0.
inline std::uint64_t explore_value(std::uint64_t seed, std::uint64_t rep) {
  return 1 + draw(seed, kExploreValue, rep) % 0xffffffffull;
}

// fuzz-mix: the FuzzPlan seed of campaign `rep` for algorithm `algo`.
inline std::uint64_t fuzz_campaign_seed(std::uint64_t seed, std::uint64_t rep,
                                        std::uint64_t algo) {
  return draw(seed, kFuzzCampaign, rep * 8 + algo);
}

// fuzz-mix: the FuzzPlan seed of the abd-regular campaign in shrink
// repetition `rep`.
inline std::uint64_t fuzz_shrink_seed(std::uint64_t seed, std::uint64_t rep) {
  return draw(seed, kFuzzShrink, rep);
}

// sweep-grid: first logV of the 50-wide logV axis. At most 47, so
// logV <= 96 and every cell keeps the 12-byte simulator minimum
// value_size — the simulated work does not depend on the seed.
inline std::size_t sweep_logv_start(std::uint64_t seed) {
  return 1 + static_cast<std::size_t>(draw(seed, kSweepLogV, 0) % 47);
}

inline std::string sweep_grid(std::uint64_t seed) {
  const std::size_t s = sweep_logv_start(seed);
  return "N=3:21:2,f=1:10,nu=1:20,logV=" + std::to_string(s) + ":" +
         std::to_string(s + 49);
}

// All f-element subsets of {0, ..., n-1}, in lexicographic order.
inline std::vector<std::vector<std::size_t>> f_subsets(std::size_t n, std::size_t f) {
  std::vector<std::vector<std::size_t>> out;
  std::vector<std::size_t> cur;
  const auto rec = [&](const auto& self, std::size_t next) -> void {
    if (cur.size() == f) {
      out.push_back(cur);
      return;
    }
    for (std::size_t i = next; i + (f - cur.size()) <= n; ++i) {
      cur.push_back(i);
      self(self, i + 1);
      cur.pop_back();
    }
  };
  rec(rec, 0);
  return out;
}

// harness-pairs: the crashed f-subset of `n` servers for case `which` in
// repetition `rep`. The seed picks where each case starts in the
// lexicographic list of subsets; successive repetitions step through the
// list, so a run covers the subsets evenly whatever the seed.
inline std::vector<std::size_t> crash_subset(std::uint64_t seed, std::uint64_t which,
                                             std::uint64_t rep, std::size_t n,
                                             std::size_t f) {
  const std::vector<std::vector<std::size_t>> all = f_subsets(n, f);
  return all[(draw(seed, kCrashSet, which) + rep) % all.size()];
}

}  // namespace perfbench

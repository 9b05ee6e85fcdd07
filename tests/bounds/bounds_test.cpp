#include "bounds/bounds.h"

#include <gtest/gtest.h>

#include <cmath>

namespace memu::bounds {
namespace {

// Reference parameters of Figure 1.
constexpr std::size_t kN = 21, kF = 10;

TEST(Bounds, NuStar) {
  EXPECT_EQ(nu_star(1, 10), 1u);
  EXPECT_EQ(nu_star(11, 10), 11u);
  EXPECT_EQ(nu_star(12, 10), 11u);  // capped at f + 1
  EXPECT_EQ(nu_star(100, 10), 11u);
}

TEST(Bounds, SingletonMatchesPaperFigures) {
  // N/(N-f) = 21/11.
  EXPECT_NEAR(singleton_normalized(kN, kF), 21.0 / 11.0, 1e-12);
  const Params p{kN, kF, 4096};
  EXPECT_NEAR(singleton_total(p), 21.0 * 4096 / 11.0, 1e-6);
  EXPECT_NEAR(singleton_max(p), 4096 / 11.0, 1e-9);
  EXPECT_DOUBLE_EQ(thm_b1_rhs(p), 4096);
}

TEST(Bounds, NoGossipIsTwiceSingletonAsymptotically) {
  // 2N/(N-f+1) vs N/(N-f): ratio -> 2 as N grows with f fixed.
  const double ratio_small = no_gossip_normalized(kN, kF) /
                             singleton_normalized(kN, kF);
  EXPECT_GT(ratio_small, 1.8);
  EXPECT_LT(ratio_small, 2.0);
  const double ratio_large = no_gossip_normalized(10000, kF) /
                             singleton_normalized(10000, kF);
  EXPECT_NEAR(ratio_large, 2.0, 0.01);
}

TEST(Bounds, UniversalIsTwiceSingletonAsymptotically) {
  // 2N/(N-f+2) vs N/(N-f) = 2(N-f)/(N-f+2): 22/13 at Figure 1's parameters,
  // -> 2 as N grows with f fixed.
  EXPECT_NEAR(universal_normalized(kN, kF) / singleton_normalized(kN, kF),
              22.0 / 13.0, 1e-12);
  EXPECT_NEAR(universal_normalized(10001, kF) /
                  singleton_normalized(10001, kF),
              2.0, 0.001);
}

TEST(Bounds, NoGossipExactForm) {
  const Params p{kN, kF, 4096};
  // N (log|V| + log(|V|-1) - log(N-f)) / (N-f+1); log(|V|-1) == 4096 at this
  // scale.
  const double expected = 21.0 * (4096 + 4096 - std::log2(11.0)) / 12.0;
  EXPECT_NEAR(no_gossip_total(p), expected, 1e-6);
  EXPECT_NEAR(no_gossip_max(p), expected / 21.0, 1e-6);
}

TEST(Bounds, NoGossipRequiresFAtLeast2) {
  const Params p{5, 1, 64};
  EXPECT_THROW(thm_41_rhs(p), ContractError);
  EXPECT_NO_THROW(thm_51_rhs(p));  // Theorem 5.1 has no such restriction
}

TEST(Bounds, UniversalExactForm) {
  const Params p{kN, kF, 4096};
  const double expected = 21.0 * (4096 + 4096 - 2 * std::log2(11.0)) / 13.0;
  EXPECT_NEAR(universal_total(p), expected, 1e-6);
  EXPECT_NEAR(universal_max(p), expected / 21.0, 1e-6);
  EXPECT_NEAR(universal_normalized(kN, kF), 42.0 / 13.0, 1e-12);
}

TEST(Bounds, UniversalWeakerThanNoGossip) {
  // Gossip can only help the algorithm, so the universal bound is (slightly)
  // smaller than the no-gossip bound, for every N, f.
  for (std::size_t n = 5; n <= 60; n += 5) {
    for (std::size_t f = 2; 2 * f < n; ++f) {
      EXPECT_LT(universal_normalized(n, f), no_gossip_normalized(n, f))
          << "n=" << n << " f=" << f;
    }
  }
}

TEST(Bounds, BothNewBoundsDominateSingleton) {
  for (std::size_t n = 5; n <= 60; n += 5) {
    for (std::size_t f = 2; 2 * f < n; ++f) {
      EXPECT_GT(no_gossip_normalized(n, f), singleton_normalized(n, f));
      EXPECT_GT(universal_normalized(n, f), singleton_normalized(n, f));
    }
  }
}

TEST(Bounds, RestrictedAtNuOneEqualsSingletonShape) {
  // nu* = 1: nu* N / (N - f + 0) = N / (N - f).
  EXPECT_NEAR(restricted_normalized(kN, kF, 1),
              singleton_normalized(kN, kF), 1e-12);
}

TEST(Bounds, RestrictedPlateausAtReplicationCost) {
  // For nu >= f + 1: (f+1) N / (N - f + f) = f + 1.
  EXPECT_NEAR(restricted_normalized(kN, kF, kF + 1), kF + 1.0, 1e-12);
  EXPECT_NEAR(restricted_normalized(kN, kF, kF + 5), kF + 1.0, 1e-12);
  EXPECT_NEAR(restricted_normalized(kN, kF, 1000), kF + 1.0, 1e-12);
}

TEST(Bounds, RestrictedIsMonotoneInNu) {
  double prev = 0;
  for (std::size_t nu = 1; nu <= 20; ++nu) {
    const double cur = restricted_normalized(kN, kF, nu);
    EXPECT_GE(cur, prev) << "nu=" << nu;
    prev = cur;
  }
}

TEST(Bounds, RestrictedExactFormLargeV) {
  const Params p{kN, kF, 4096};
  const std::size_t nu = 3;
  // RHS = log2 C(|V|-1, 3) - 3 log2(N-f+2) - log2(3!)
  //     = 3*4096 - log2(6) - 3 log2(13) - log2(6) at this scale.
  const double expected =
      3 * 4096.0 - std::log2(6.0) - 3 * std::log2(13.0) - std::log2(6.0);
  EXPECT_NEAR(thm_65_rhs(p, nu), expected, 1e-6);
  EXPECT_NEAR(restricted_total(p, nu), 21.0 * expected / 13.0, 1e-4);
  EXPECT_NEAR(restricted_max(p, nu), expected / 13.0, 1e-6);
}

TEST(Bounds, RestrictedExactFormSmallV) {
  // Small domain where the binomial must be computed exactly: |V| = 16.
  const Params p{5, 2, 4};
  const std::size_t nu = 2;  // nu* = 2
  // C(15, 2) = 105; span = N - f + 1 = 4.
  const double expected =
      std::log2(105.0) - 2 * std::log2(4.0) - std::log2(2.0);
  EXPECT_NEAR(thm_65_rhs(p, nu), expected, 1e-9);
}

TEST(Bounds, UpperBoundsMatchFigureOne) {
  const Params p{kN, kF, 4096};
  EXPECT_DOUBLE_EQ(abd_ideal_total(p), 11.0 * 4096);
  EXPECT_DOUBLE_EQ(abd_ideal_normalized(kF), 11.0);
  EXPECT_DOUBLE_EQ(abd_majority_total(p), 21.0 * 4096);
  EXPECT_NEAR(erasure_total(p, 4), 4 * 21.0 * 4096 / 11.0, 1e-6);
  EXPECT_NEAR(erasure_normalized(kN, kF, 4), 84.0 / 11.0, 1e-12);
}

TEST(Bounds, CasTotalUsesCodeDimension) {
  const Params p{9, 2, 1000};
  // k <= N - 2f = 5; nu = 3 stalled writes + v0 = 4 versions of B/k bits
  // on each of N servers.
  EXPECT_NEAR(cas_total(p, 3, 5), 4 * 9 * 1000.0 / 5, 1e-9);
  EXPECT_THROW(cas_total(p, 3, 6), ContractError);
}

TEST(Bounds, LowerBoundsDoNotExceedMatchingUpperBounds) {
  // Consistency within the same liveness class: Theorem 6.5 (liveness under
  // bounded concurrency nu) never exceeds the erasure upper bound nor the
  // replication upper bound, which are achievable in that class. Note the
  // Theorem 5.1 bound legitimately EXCEEDS the erasure curve for small nu
  // (visible in Figure 1): Theorem 5.1 assumes termination under unbounded
  // concurrency, which the erasure algorithms do not provide.
  for (std::size_t nu = 1; nu <= 30; ++nu) {
    EXPECT_LE(restricted_normalized(kN, kF, nu),
              abd_ideal_normalized(kF) + 1e-9);
    EXPECT_LE(restricted_normalized(kN, kF, nu),
              erasure_normalized(kN, kF, nu) + 1e-9);
  }
  EXPECT_GT(universal_normalized(kN, kF), erasure_normalized(kN, kF, 1));
}

TEST(Bounds, Figure1SeriesMatchesClosedForms) {
  const auto rows = figure1_series(kN, kF, 16);
  ASSERT_EQ(rows.size(), 16u);
  for (const auto& r : rows) {
    EXPECT_NEAR(r.thm_b1, 21.0 / 11.0, 1e-12);
    EXPECT_NEAR(r.thm_41, 42.0 / 12.0, 1e-12);
    EXPECT_NEAR(r.thm_51, 42.0 / 13.0, 1e-12);
    EXPECT_NEAR(r.abd, 11.0, 1e-12);
    EXPECT_NEAR(r.erasure, static_cast<double>(r.nu) * 21 / 11, 1e-12);
    const std::size_t ns = nu_star(r.nu, kF);
    EXPECT_NEAR(r.thm_65,
                static_cast<double>(ns) * 21 /
                    static_cast<double>(21 - 10 + ns - 1),
                1e-12);
  }
  // Spot values read off the figure: at nu = 11 the Theorem 6.5 curve meets
  // the ABD line at f + 1 = 11.
  EXPECT_NEAR(rows[10].thm_65, 11.0, 1e-12);
  EXPECT_NEAR(rows[15].thm_65, 11.0, 1e-12);
}

TEST(Bounds, ErasureReplicationCrossover) {
  // Erasure beats replication iff nu N/(N-f) < f+1, i.e. nu < 5.76 for
  // Figure 1's parameters: crossover between nu = 5 and nu = 6.
  EXPECT_LT(erasure_normalized(kN, kF, 5), abd_ideal_normalized(kF));
  EXPECT_GT(erasure_normalized(kN, kF, 6), abd_ideal_normalized(kF));
}

TEST(Bounds, FiniteVCorrectionIsSmall) {
  // The o(log|V|) corrections vanish relative to B as B grows.
  for (const double b : {64.0, 512.0, 4096.0}) {
    const Params p{kN, kF, b};
    const double exact = universal_total(p);
    const double asymptotic = universal_normalized(kN, kF) * b;
    EXPECT_LT(exact, asymptotic);
    EXPECT_GT(exact, asymptotic * (1 - 0.2 * 64 / b));
  }
}

TEST(Bounds, TrichotomyClassification) {
  // g below the universal bound: impossible.
  auto v = classify_candidate(2.0, kN, kF, 8);
  EXPECT_TRUE(v.below_universal);
  // g between universal and restricted: requires evading Section 6's
  // assumptions.
  v = classify_candidate(5.0, kN, kF, 8);
  EXPECT_FALSE(v.below_universal);
  EXPECT_TRUE(v.below_restricted);
  EXPECT_TRUE(v.below_replication);
  // g above replication: achievable (ABD).
  v = classify_candidate(11.5, kN, kF, 8);
  EXPECT_FALSE(v.below_universal);
  EXPECT_FALSE(v.below_restricted);
  EXPECT_FALSE(v.below_replication);
}

TEST(Bounds, VOverflowTrap) {
  // At the default B = 4096, exp2 overflows a double to +inf; v() must
  // refuse instead of handing callers infinity.
  const Params big{kN, kF, 4096};
  EXPECT_FALSE(big.v_exact());
  EXPECT_THROW(big.v(), ContractError);
  EXPECT_THROW((Params{kN, kF, Params::kMaxExactLog2V + 1}.v()),
               ContractError);

  // Below the threshold v() is exact.
  const Params small{kN, kF, 8};
  EXPECT_TRUE(small.v_exact());
  EXPECT_DOUBLE_EQ(small.v(), 256.0);
  EXPECT_DOUBLE_EQ((Params{kN, kF, Params::kMaxExactLog2V}.v()),
                   std::exp2(Params::kMaxExactLog2V));

  // The exact theorem forms stay finite at the default B: their internal
  // uses of |V| route through the guarded helpers' asymptotic branch.
  EXPECT_TRUE(std::isfinite(thm_41_rhs(big)));
  EXPECT_TRUE(std::isfinite(thm_51_rhs(big)));
  EXPECT_TRUE(std::isfinite(thm_65_rhs(big, 3)));
}

TEST(Bounds, ParameterValidation) {
  EXPECT_THROW(singleton_total(Params{5, 5, 64}), ContractError);  // N == f
  EXPECT_THROW(singleton_normalized(5, 5), ContractError);
  EXPECT_THROW(figure1_series(5, 5, 4), ContractError);
  EXPECT_THROW(thm_65_rhs(Params{5, 1, 64}, 0), ContractError);  // nu = 0
}

// Parameterized sweep: the paper's headline inequality chain
// singleton < universal <= no-gossip < restricted(nu large) <= f+1 holds
// across a grid of (N, f).
class BoundsOrdering
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {};

TEST_P(BoundsOrdering, ChainHolds) {
  const auto [n, f] = GetParam();
  EXPECT_LT(singleton_normalized(n, f), universal_normalized(n, f));
  EXPECT_LE(universal_normalized(n, f), no_gossip_normalized(n, f));
  EXPECT_NEAR(restricted_normalized(n, f, f + 1), f + 1.0, 1e-9);
  EXPECT_LE(no_gossip_normalized(n, f),
            2 * singleton_normalized(n, f) + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, BoundsOrdering,
    ::testing::Values(std::tuple{5u, 2u}, std::tuple{7u, 3u},
                      std::tuple{21u, 10u}, std::tuple{31u, 10u},
                      std::tuple{101u, 50u}, std::tuple{101u, 10u},
                      std::tuple{1001u, 500u}));

}  // namespace
}  // namespace memu::bounds

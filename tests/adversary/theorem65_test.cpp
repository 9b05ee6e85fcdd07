#include "adversary/theorem65.h"

#include <gtest/gtest.h>

#include <string>

#include "fork_cost.h"

namespace memu::adversary {
namespace {

constexpr std::size_t kValueSize = 18;

std::vector<Value> values_of(std::initializer_list<std::size_t> idx) {
  std::vector<Value> out;
  for (const std::size_t i : idx) out.push_back(enum_value(i, kValueSize));
  return out;
}

TEST(Theorem65, SingleWriterDegeneratesToSingleton) {
  // nu = 1: the construction reduces to "deliver the value to a prefix and
  // find the smallest prefix from which it is readable".
  const auto ex =
      run_staged_execution(mw_factory("abd", 5, 2, 0, 1, kValueSize),
                           values_of({1}));
  EXPECT_TRUE(ex.parked);
  EXPECT_TRUE(ex.completed);
  ASSERT_EQ(ex.a.size(), 1u);
  ASSERT_EQ(ex.sigma.size(), 1u);
  // For replication, one server's copy makes the value readable (the read
  // takes the max tag over all live servers).
  EXPECT_EQ(ex.a[0], 1u);
}

TEST(Theorem65, AbdTwoWriterStagesAreTight) {
  // nu = 2 on ABD: one server's copy suffices for each stage. Stage 1 must
  // pick the tag-dominant writer (an ABD read returns the max tag, so only
  // its value is recoverable when both stores landed); stage 2's analysis
  // point reduces stage 1's prefix, isolating the other writer at a = 1.
  const auto ex = run_staged_execution(
      mw_factory("abd", 5, 2, 0, 2, kValueSize), values_of({1, 2}));
  ASSERT_TRUE(ex.completed);
  ASSERT_EQ(ex.a.size(), 2u);
  EXPECT_EQ(ex.a[0], 1u);
  EXPECT_EQ(ex.a[1], 1u);
  // sigma is a permutation of {0, 1}, led by the higher writer id (tags tie
  // on sequence number and break on writer id).
  EXPECT_EQ(ex.sigma[0], 1u);
  EXPECT_EQ(ex.sigma[1], 0u);
}

TEST(Theorem65, CasFirstStageNeedsAQuorum) {
  // nu = 2 on CAS(N=5, f=1, k=3): a value is recoverable only once its
  // writer can finalize, i.e. after its coded elements reach a quorum of
  // ceil((N + k)/2) = 4 servers — a genuinely larger prefix than ABD's 1.
  const auto ex = run_staged_execution(
      mw_factory("cas", 5, 1, 3, 2, kValueSize), values_of({1, 2}));
  ASSERT_TRUE(ex.parked);
  ASSERT_TRUE(ex.completed);
  ASSERT_EQ(ex.a.size(), 2u);
  EXPECT_EQ(ex.a[0], 4u);  // cas_quorum(5, 3)
  // Stage 2's analysis point reduces stage 1's prefix by one, so the second
  // writer reaches its quorum with one extra server: a_2 = 4 again (weakly
  // increasing, within the theorem's span N - f + nu - 1 = 5).
  EXPECT_EQ(ex.a[1], 4u);
}

TEST(Theorem65, DeterministicAcrossRuns) {
  const auto a = run_staged_execution(
      mw_factory("cas", 5, 1, 3, 2, kValueSize), values_of({1, 2}));
  const auto b = run_staged_execution(
      mw_factory("cas", 5, 1, 3, 2, kValueSize), values_of({1, 2}));
  ASSERT_TRUE(a.completed);
  ASSERT_TRUE(b.completed);
  EXPECT_EQ(a.signature, b.signature);
  EXPECT_EQ(a.a, b.a);
  EXPECT_EQ(a.sigma, b.sigma);
}

TEST(Theorem65, TupleInjectivityOnAbd) {
  const auto report = verify_staged_injectivity(
      mw_factory("abd", 5, 2, 0, 2, kValueSize), 3, 2);
  EXPECT_EQ(report.tuples, 6u);  // 3 * 2 ordered tuples
  EXPECT_TRUE(report.all_parked);
  EXPECT_TRUE(report.all_completed);
  EXPECT_TRUE(report.a_monotone);
  EXPECT_TRUE(report.injective);
  // live = N - f + nu - 1 = 5 - 2 + 1 = 4... with f+1-nu = 1 crash.
  EXPECT_EQ(report.live_servers, 4u);
}

TEST(Theorem65, TupleInjectivityOnCas) {
  const auto report = verify_staged_injectivity(
      mw_factory("cas", 5, 1, 3, 2, kValueSize), 3, 2);
  EXPECT_TRUE(report.all_completed);
  EXPECT_TRUE(report.injective);
  // CAS servers accrete coded elements (nothing is overwritten), so the
  // paper's single-final-point counting map is injective as stated.
  EXPECT_TRUE(report.single_point_injective);
  EXPECT_EQ(report.live_servers, 5u);  // f + 1 - nu = 0 crashes
}

TEST(Theorem65, SinglePointMapFailsForOverwritingStorage) {
  // Instructive negative result: ABD servers keep only the tag-dominant
  // value, so the final point alone cannot distinguish tuples that differ
  // in an overwritten component — the robust multi-point map is required.
  const auto report = verify_staged_injectivity(
      mw_factory("abd", 5, 2, 0, 2, kValueSize), 3, 2);
  EXPECT_TRUE(report.all_completed);
  EXPECT_TRUE(report.injective);                // multi-point: injective
  EXPECT_FALSE(report.single_point_injective);  // final point only: not
  EXPECT_LT(report.single_point_distinct, report.tuples);
}

TEST(Theorem65, ThreeWritersOnAbd) {
  // nu = 3 <= f + 1 with f = 2: live = N - f + nu - 1 = N.
  const auto report = verify_staged_injectivity(
      mw_factory("abd", 5, 2, 0, 3, kValueSize), 3, 3);
  EXPECT_EQ(report.tuples, 6u);
  EXPECT_TRUE(report.all_completed);
  EXPECT_TRUE(report.a_monotone);
  EXPECT_TRUE(report.injective);
}

TEST(Theorem65, StripStoreFullValuePhaseAlsoStages) {
  // StripStore's bulk phase ships FULL values; a value-blocked writer can
  // still commit (metadata), so a value is recoverable once its store
  // reached the N - f quorum — mirroring CAS with k = N - f.
  const auto report = verify_staged_injectivity(
      mw_factory("strip", 5, 1, 0, 2, kValueSize), 3, 2);
  EXPECT_TRUE(report.all_parked);
  EXPECT_TRUE(report.all_completed);
  EXPECT_TRUE(report.injective);
  // Accreting storage: the paper's single-point map applies directly.
  EXPECT_TRUE(report.single_point_injective);

  const auto ex = run_staged_execution(
      mw_factory("strip", 5, 1, 0, 2, kValueSize), values_of({1, 2}));
  ASSERT_TRUE(ex.completed);
  EXPECT_EQ(ex.a[0], 4u);  // quorum = N - f
}

TEST(Theorem65, LdrSubsetTargetedPutsAlsoStage) {
  // LDR's value messages go to a write-chosen f + 1 replica subset; the
  // staged construction still completes — one replica's full copy makes a
  // value readable (a_1 = 1, like replication) — and the multi-point map
  // is injective. The single-point map fails as for ABD: replicas
  // overwrite, so the final point forgets superseded values.
  const auto report = verify_staged_injectivity(
      mw_factory("ldr", 5, 2, 0, 2, kValueSize), 3, 2);
  EXPECT_TRUE(report.all_parked);
  EXPECT_TRUE(report.all_completed);
  EXPECT_TRUE(report.injective);
  EXPECT_FALSE(report.single_point_injective);
}

TEST(Theorem65, NuAboveFPlus1IsRejected) {
  EXPECT_THROW(
      run_staged_execution(mw_factory("abd", 7, 1, 0, 3, kValueSize),
                           values_of({1, 2, 3})),
      ContractError);
}

TEST(Theorem65, ValueBlockedWriterStillFinalizes) {
  // The construction's crux for CAS: a value-blocked writer may complete
  // its metadata phases. After stage 1 of the staged execution, the CAS
  // writer sigma(1) can finalize through a value-block, which is what makes
  // its value returnable without any further value-dependent action.
  const auto ex = run_staged_execution(
      mw_factory("cas", 5, 1, 3, 2, kValueSize), values_of({1, 2}));
  ASSERT_TRUE(ex.completed);
  // Stage 1 recovered some value with only pre-writes delivered — i.e., the
  // directed probe finalized through the value-block.
  EXPECT_EQ(ex.a[0], 4u);
}

// ---- Every case of the executed construction --------------------------------
//
// One input per (family, shape, nu) Theorem 6.5 and the Section 6.5
// conjecture are executed on (cas-hash: CAS plus an o(log|V|) hash phase,
// probed with bulk-only blocking). Each asserts every condition holds()
// checks, then holds() itself, and whether the paper's single-final-point
// map is injective: it is for accreting storage (CAS, STRIP) and is not for
// overwriting storage (ABD, LDR), whose final point forgets all but the
// tag-dominant value.
struct StagedCase {
  const char* name;
  const char* algo;
  std::size_t n, f, k, nu, domain;
  bool single_point_injective;
  double cow_bytes_per_fork;  // measured when the ceiling was set
};
void PrintTo(const StagedCase& c, std::ostream* os) { *os << c.name; }

class Theorem65Cases : public ::testing::TestWithParam<StagedCase> {};

TEST_P(Theorem65Cases, Holds) {
  const StagedCase& c = GetParam();
  const MwSutFactory factory =
      mw_factory(c.algo, c.n, c.f, c.k, c.nu, kValueSize);
  Theorem65Report r;
  const double cost = testing::cow_bytes_per_fork(
      [&] { r = verify_staged_injectivity(factory, c.domain, c.nu); });
  EXPECT_TRUE(r.all_parked);
  EXPECT_TRUE(r.all_completed);
  EXPECT_TRUE(r.a_monotone);
  EXPECT_TRUE(r.injective);
  EXPECT_TRUE(holds(r));
  EXPECT_EQ(r.single_point_injective, c.single_point_injective);
  EXPECT_GT(cost, 0.0);
  EXPECT_LE(cost, testing::kForkCostSlack * c.cow_bytes_per_fork);
}

INSTANTIATE_TEST_SUITE_P(
    Paper, Theorem65Cases,
    ::testing::Values(
        StagedCase{"abd_n5_f2_nu2", "abd", 5, 2, 0, 2, 4, false, 60},
        StagedCase{"abd_n5_f2_nu3", "abd", 5, 2, 0, 3, 3, false, 69.2308},
        StagedCase{"abd_n7_f3_nu2", "abd", 7, 3, 0, 2, 4, false, 65.1429},
        StagedCase{"cas_n5_f1_k3_nu2", "cas", 5, 1, 3, 2, 4, true, 166.824},
        StagedCase{"cas_n7_f2_k3_nu2", "cas", 7, 2, 3, 2, 3, true, 192.524},
        StagedCase{"cas_n7_f2_k3_nu3", "cas", 7, 2, 3, 3, 3, true, 222.548},
        StagedCase{"strip_n5_f1_nu2", "strip", 5, 1, 0, 2, 3, true, 235.412},
        StagedCase{"strip_n7_f2_nu3", "strip", 7, 2, 0, 3, 3, true, 327.903},
        StagedCase{"ldr_n5_f2_nu2", "ldr", 5, 2, 0, 2, 3, false, 161.143},
        StagedCase{"cas_hash_n5_f1_k3_nu2", "cas-hash", 5, 1, 3, 2, 4, true,
                   317.412},
        StagedCase{"cas_hash_n7_f2_k3_nu2", "cas-hash", 7, 2, 3, 2, 3, true,
                   373.476},
        StagedCase{"cas_hash_n7_f2_k3_nu3", "cas-hash", 7, 2, 3, 3, 3, true,
                   522.548}),
    [](const auto& info) { return std::string(info.param.name); });

}  // namespace
}  // namespace memu::adversary

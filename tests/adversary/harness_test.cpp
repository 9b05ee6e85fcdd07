#include "adversary/harness.h"

#include <gtest/gtest.h>

#include <numeric>

#include "engine/scheduler.h"

namespace memu::adversary {
namespace {

constexpr std::size_t kValueSize = 16;

TEST(Valency, FreshSystemIsZeroValent) {
  // Before any write, a solo read returns the initial value v0.
  Sut sut = abd_sut_factory(5, 2, kValueSize)();
  const auto got = probe_read(sut.world, sut.writer, sut.reader);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, enum_value(0, kValueSize));
}

TEST(Valency, ProbeDoesNotDisturbTheExecution) {
  Sut sut = abd_sut_factory(5, 2, kValueSize)();
  const Value v1 = enum_value(1, kValueSize);
  sut.world.invoke(sut.writer, Invocation{OpType::kWrite, v1});

  const std::size_t in_flight = sut.world.in_flight();
  const auto got = probe_read(sut.world, sut.writer, sut.reader);
  ASSERT_TRUE(got.has_value());
  // The real world is untouched: same pending messages, writer still busy.
  EXPECT_EQ(sut.world.in_flight(), in_flight);
  EXPECT_EQ(sut.world.oplog().responses_since(0), 0u);
}

TEST(Valency, AfterCompletedWriteProbeReturnsThatValue) {
  Sut sut = abd_sut_factory(5, 2, kValueSize)();
  const Value v1 = enum_value(1, kValueSize);
  const std::size_t base = sut.world.oplog().size();
  sut.world.invoke(sut.writer, Invocation{OpType::kWrite, v1});
  Scheduler sched;
  ASSERT_TRUE(sched.run_until(
      sut.world,
      [base](const World& w) { return w.oplog().responses_since(base) >= 1; },
      100000));
  const auto got = probe_read(sut.world, sut.writer, sut.reader);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, v1);
}

TEST(Valency, GossipFlushIsANoOpForGossipFreeAlgorithms) {
  Sut sut = abd_sut_factory(5, 2, kValueSize)();
  ProbeOptions opt;
  opt.flush_gossip = true;
  const auto got = probe_read(sut.world, sut.writer, sut.reader, opt);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, enum_value(0, kValueSize));
}

// ---- Theorem B.1 harness ------------------------------------------------------

TEST(TheoremB1, AbdStateVectorsAreInjective) {
  const auto report =
      verify_singleton_injectivity(abd_sut_factory(5, 2, kValueSize), 6);
  EXPECT_EQ(report.domain, 6u);
  EXPECT_EQ(report.distinct_states, 6u);
  EXPECT_TRUE(report.injective);
  EXPECT_TRUE(report.probes_consistent);
  // N - f = 3 live servers.
  EXPECT_EQ(report.per_server_distinct.size(), 3u);
}

TEST(TheoremB1, CasStateVectorsAreInjective) {
  const auto report = verify_singleton_injectivity(
      cas_sut_factory(5, 1, 3, kValueSize + 2, std::nullopt), 6);
  EXPECT_TRUE(report.injective);
  EXPECT_TRUE(report.probes_consistent);
  EXPECT_EQ(report.per_server_distinct.size(), 4u);
}

TEST(TheoremB1, EmpiricalCountingArgumentHolds) {
  // Injectivity implies prod_i (#states of server i) >= |V|, i.e.
  // sum_i log2(per-server distinct) >= log2(domain) — the Singleton step.
  const auto report =
      verify_singleton_injectivity(abd_sut_factory(5, 2, kValueSize), 8);
  ASSERT_TRUE(report.injective);
  double sum_log = 0;
  for (const std::size_t d : report.per_server_distinct)
    sum_log += std::log2(static_cast<double>(d));
  EXPECT_GE(sum_log + 1e-9, report.bound_log2);
}

TEST(TheoremB1, SwmrAbdAlsoInjective) {
  const auto report =
      verify_singleton_injectivity(abd_swmr_sut_factory(5, 2, kValueSize), 5);
  EXPECT_TRUE(report.injective);
  EXPECT_TRUE(report.probes_consistent);
}

// ---- Theorem 4.1 harness --------------------------------------------------------

TEST(Theorem41, CriticalPairExistsForAbd) {
  const auto info = find_critical_pair(abd_sut_factory(5, 2, kValueSize),
                                       enum_value(1, kValueSize),
                                       enum_value(2, kValueSize));
  EXPECT_TRUE(info.found);
  EXPECT_TRUE(info.probes_consistent);  // Q1 reads v1, Q2 reads v2
  EXPECT_TRUE(info.single_change);      // Lemma 4.8(b)
  EXPECT_GT(info.flip_step, 0u);
  EXPECT_FALSE(info.signature.empty());
}

TEST(Theorem41, CriticalPairExistsForCas) {
  const auto info = find_critical_pair(
      cas_sut_factory(5, 1, 3, kValueSize + 2, std::nullopt),
      enum_value(1, kValueSize + 2), enum_value(2, kValueSize + 2));
  EXPECT_TRUE(info.found);
  EXPECT_TRUE(info.probes_consistent);
  EXPECT_TRUE(info.single_change);
}

TEST(Theorem41, ChangedServerIsLive) {
  const SutFactory factory = abd_sut_factory(5, 2, kValueSize);
  const auto info = find_critical_pair(factory, enum_value(3, kValueSize),
                                       enum_value(1, kValueSize));
  ASSERT_TRUE(info.found);
  // The changed server must be one of the first N - f (non-crashed) ones.
  Sut probe_sut = factory();
  bool is_live_server = false;
  for (std::size_t i = 0; i + probe_sut.f < probe_sut.servers.size(); ++i)
    if (probe_sut.servers[i] == info.changed_server) is_live_server = true;
  EXPECT_TRUE(is_live_server);
}

TEST(Theorem41, SignaturesAreDeterministic) {
  const SutFactory factory = abd_sut_factory(5, 2, kValueSize);
  const auto a = find_critical_pair(factory, enum_value(1, kValueSize),
                                    enum_value(2, kValueSize));
  const auto b = find_critical_pair(factory, enum_value(1, kValueSize),
                                    enum_value(2, kValueSize));
  ASSERT_TRUE(a.found);
  ASSERT_TRUE(b.found);
  EXPECT_EQ(a.signature, b.signature);
  EXPECT_EQ(a.flip_step, b.flip_step);
}

TEST(Theorem41, PairInjectivityForAbd) {
  const auto report =
      verify_pair_injectivity(abd_sut_factory(5, 2, kValueSize), 3);
  EXPECT_EQ(report.pairs, 6u);
  EXPECT_TRUE(report.all_found);
  EXPECT_TRUE(report.all_consistent);
  EXPECT_TRUE(report.all_single_change);
  EXPECT_EQ(report.distinct_signatures, 6u);
  EXPECT_TRUE(report.injective);
}

TEST(Theorem41, PairInjectivityForSwmrAbd) {
  const auto report =
      verify_pair_injectivity(abd_swmr_sut_factory(5, 2, kValueSize), 3);
  EXPECT_TRUE(report.injective);
  EXPECT_TRUE(report.all_consistent);
}

TEST(Theorem41, PairInjectivityForCas) {
  const auto report = verify_pair_injectivity(
      cas_sut_factory(5, 1, 3, kValueSize + 2, std::nullopt), 3);
  EXPECT_TRUE(report.injective);
  EXPECT_TRUE(report.all_found);
  EXPECT_TRUE(report.all_single_change);
}

TEST(Theorem41, PairInjectivityForCasgc) {
  const auto report = verify_pair_injectivity(
      cas_sut_factory(5, 1, 3, kValueSize + 2, std::size_t{1}), 3);
  EXPECT_TRUE(report.injective);
  EXPECT_TRUE(report.all_found);
}

TEST(Theorem41, GossipVariantProbesAlsoInjective) {
  ProbeOptions opt;
  opt.flush_gossip = true;  // Theorem 5.1's R-point construction
  const auto report =
      verify_pair_injectivity(abd_sut_factory(5, 2, kValueSize), 3, opt);
  EXPECT_TRUE(report.injective);
}

TEST(Theorem41, EmpiricalCountingCertificateHolds) {
  // Injectivity of the ~S map implies, over the observed state universe,
  //   sum_i log2 |S_i @ Q1| + log2 #(s, state@Q2) >= log2(m(m-1)) —
  // the executable form of Theorem 4.1's inequality. Check it on two
  // algorithms.
  for (const auto& factory :
       {abd_sut_factory(5, 2, kValueSize),
        cas_sut_factory(5, 1, 3, kValueSize + 2, std::nullopt)}) {
    const auto report = verify_pair_injectivity(factory, 4);
    ASSERT_TRUE(report.injective);
    EXPECT_EQ(report.per_server_q1_distinct.size(),
              factory().servers.size() - factory().f);
    EXPECT_GE(report.certificate_log2 + 1e-9, report.bound_log2);
    EXPECT_GT(report.q2_pair_distinct, 0u);
  }
}

TEST(Theorem41, HoldsForEveryCrashSubset) {
  // The theorems quantify over every (N - f)-subset of live servers: sweep
  // all C(5, 2) = 10 crash subsets on ABD and check injectivity per subset.
  const SutFactory factory = abd_sut_factory(5, 2, kValueSize);
  for (std::size_t a = 0; a < 5; ++a) {
    for (std::size_t b = a + 1; b < 5; ++b) {
      const auto report =
          verify_pair_injectivity(factory, 3, ProbeOptions{}, {a, b});
      EXPECT_TRUE(report.injective) << "crash {" << a << "," << b << "}";
      EXPECT_TRUE(report.all_single_change) << a << "," << b;
    }
  }
}

TEST(TheoremB1, HoldsForEveryCrashSubset) {
  const SutFactory factory = cas_sut_factory(5, 1, 3, kValueSize + 2, {});
  for (std::size_t a = 0; a < 5; ++a) {
    const auto report =
        verify_singleton_injectivity(factory, 5, ProbeOptions{}, {a});
    EXPECT_TRUE(report.injective) << "crash {" << a << "}";
    EXPECT_TRUE(report.probes_consistent) << "crash {" << a << "}";
  }
}

TEST(Harness, CrashSubsetSizeIsValidated) {
  EXPECT_THROW(verify_pair_injectivity(abd_sut_factory(5, 2, kValueSize), 3,
                                       ProbeOptions{}, {0}),
               ContractError);  // needs exactly f = 2 indices
}

TEST(Harness, RejectsDegenerateDomains) {
  EXPECT_THROW(
      verify_singleton_injectivity(abd_sut_factory(5, 2, kValueSize), 1),
      ContractError);
  EXPECT_THROW(verify_pair_injectivity(abd_sut_factory(5, 2, kValueSize), 1),
               ContractError);
}

// Property sweep: injectivity holds across system shapes (Theorem 4.1 is
// universal over algorithms and parameters).
struct SweepCase {
  std::size_t n, f;
  bool cas;
  std::size_t k;
};

class InjectivitySweep : public ::testing::TestWithParam<SweepCase> {};

TEST_P(InjectivitySweep, PairMapIsInjective) {
  const auto& c = GetParam();
  const SutFactory factory =
      c.cas ? cas_sut_factory(c.n, c.f, c.k, kValueSize + 2, std::nullopt)
            : abd_sut_factory(c.n, c.f, kValueSize);
  const auto report = verify_pair_injectivity(factory, 3);
  EXPECT_TRUE(report.injective)
      << "n=" << c.n << " f=" << c.f << " cas=" << c.cas;
  EXPECT_TRUE(report.all_single_change);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, InjectivitySweep,
    ::testing::Values(SweepCase{3, 1, false, 0}, SweepCase{5, 2, false, 0},
                      SweepCase{7, 3, false, 0}, SweepCase{4, 1, true, 2},
                      SweepCase{6, 2, true, 2}, SweepCase{7, 2, true, 3}));

}  // namespace
}  // namespace memu::adversary

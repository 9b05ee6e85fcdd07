#include "workload/driver.h"

#include <gtest/gtest.h>

#include "algo/abd/system.h"
#include "algo/cas/system.h"
#include "algo/registry.h"
#include "consistency/checker.h"
#include "workload/park.h"

namespace memu::workload {
namespace {

TEST(Driver, CompletesQuotasOnAbd) {
  abd::Options aopt;
  aopt.n_writers = 2;
  aopt.n_readers = 2;
  abd::System sys = abd::make_system(aopt);

  Options opt;
  opt.writes_per_writer = 3;
  opt.reads_per_reader = 3;
  opt.value_size = aopt.value_size;
  const RunResult res = run(sys.world, sys.writers, sys.readers, opt);

  EXPECT_TRUE(res.completed);
  EXPECT_EQ(res.history.completed_reads().size(), 6u);
  EXPECT_EQ(res.history.writes().size(), 6u);
  EXPECT_EQ(res.op_latency_steps.size(), 12u);
  EXPECT_GT(res.steps, 0u);
  EXPECT_GT(res.storage.peak_total.value_bits, 0);
}

TEST(Driver, CompletesQuotasOnCas) {
  cas::Options copt;
  copt.n_writers = 2;
  copt.n_readers = 1;
  cas::System sys = cas::make_system(copt);

  Options opt;
  opt.writes_per_writer = 2;
  opt.reads_per_reader = 4;
  opt.value_size = copt.value_size;
  const RunResult res = run(sys.world, sys.writers, sys.readers, opt);
  EXPECT_TRUE(res.completed);
  EXPECT_EQ(res.history.completed_reads().size(), 4u);
}

TEST(Driver, HistoriesAreAtomicUnderRandomSchedules) {
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    abd::Options aopt;
    aopt.n_writers = 2;
    aopt.n_readers = 2;
    abd::System sys = abd::make_system(aopt);

    Options opt;
    opt.writes_per_writer = 3;
    opt.reads_per_reader = 3;
    opt.value_size = aopt.value_size;
    opt.seed = seed;
    const RunResult res = run(sys.world, sys.writers, sys.readers, opt);
    ASSERT_TRUE(res.completed) << "seed " << seed;
    const auto check =
        check_atomic(res.history, enum_value(0, aopt.value_size));
    EXPECT_TRUE(check.ok) << "seed " << seed << ": " << check.violation;
  }
}

TEST(Driver, CasHistoriesAreAtomicUnderRandomSchedules) {
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    cas::Options copt;
    copt.n_writers = 2;
    copt.n_readers = 2;
    cas::System sys = cas::make_system(copt);

    Options opt;
    opt.writes_per_writer = 2;
    opt.reads_per_reader = 2;
    opt.value_size = copt.value_size;
    opt.seed = seed;
    const RunResult res = run(sys.world, sys.writers, sys.readers, opt);
    ASSERT_TRUE(res.completed) << "seed " << seed;
    const auto check =
        check_atomic(res.history, enum_value(0, copt.value_size));
    EXPECT_TRUE(check.ok) << "seed " << seed << ": " << check.violation;
  }
}

TEST(Driver, AbdStorageFlatInConcurrency) {
  for (const std::size_t nu : {1u, 3u, 5u}) {
    abd::Options aopt;
    aopt.n_writers = nu;
    aopt.n_readers = 0;
    abd::System sys = abd::make_system(aopt);

    Options opt;
    opt.writes_per_writer = 2;
    opt.reads_per_reader = 0;
    opt.value_size = aopt.value_size;
    const RunResult res = run(sys.world, sys.writers, sys.readers, opt);
    ASSERT_TRUE(res.completed);
    // Peak value storage = N full values, independent of nu.
    EXPECT_DOUBLE_EQ(res.storage.peak_total.value_bits,
                     static_cast<double>(aopt.n_servers) * 8 *
                         static_cast<double>(aopt.value_size))
        << "nu=" << nu;
  }
}

TEST(Driver, MeteringSamplesEveryStep) {
  abd::Options aopt;
  aopt.n_servers = 3;
  aopt.f = 1;
  aopt.single_writer = true;
  aopt.value_size = 12;
  abd::System sys = abd::make_system(aopt);

  Options opt;
  opt.writes_per_writer = 1;
  opt.reads_per_reader = 1;
  opt.value_size = aopt.value_size;
  const RunResult res = run(sys.world, sys.writers, sys.readers, opt);
  ASSERT_TRUE(res.completed);
  // One pre-run observation plus one per delivered message.
  EXPECT_EQ(res.storage.observations, res.steps + 1);
  // Three live replicas each hold a 12-byte value.
  EXPECT_GE(res.storage.peak_total.value_bits, 3 * 8.0 * 12);
}

TEST(Driver, BeforeStepHookGetsRetriesWhileStalled) {
  abd::Options aopt;
  abd::System sys = abd::make_system(aopt);
  const auto partition_servers = [&sys](World& w) {
    for (const NodeId s : sys.servers) w.partition_add(s);
  };

  // The hook cuts the servers off from the clients before the first step,
  // so the scheduler stalls; it heals only after nine failed attempts.
  Options opt;
  opt.writes_per_writer = 2;
  opt.reads_per_reader = 2;
  opt.value_size = aopt.value_size;
  std::size_t calls_before_first_step = 0;
  opt.before_step = [&](World& w, std::uint64_t steps_taken) {
    if (steps_taken > 0) return;
    ++calls_before_first_step;
    if (calls_before_first_step == 1) partition_servers(w);
    if (calls_before_first_step == 10) w.heal_partition();
  };
  const RunResult healed = run(sys.world, sys.writers, sys.readers, opt);
  EXPECT_EQ(calls_before_first_step, 10u);
  EXPECT_TRUE(healed.completed);
  EXPECT_EQ(healed.history.completed_reads().size(),
            sys.readers.size() * opt.reads_per_reader);

  // The same stuck World without a hook stops at its first failed step.
  abd::System stuck = abd::make_system(aopt);
  partition_servers(stuck.world);
  opt.before_step = nullptr;
  const RunResult res = run(stuck.world, stuck.writers, stuck.readers, opt);
  EXPECT_FALSE(res.completed);
  EXPECT_EQ(res.steps, 0u);
  EXPECT_EQ(res.storage.observations, 1u);
  EXPECT_EQ(res.history.completed_reads().size(), 0u);
}

TEST(Park, CasStorageScalesWithParkedWrites) {
  // Each server holds v0 plus nu parked versions, one B/k-bit element each:
  // (nu + 1) N / k times B. The N = 9, f = 2 shapes span the code dimension
  // from replication per version (k = 1) to maximal erasure coding
  // (k = N - 2f = 5), the horizontal axis of the replication-vs-coding
  // tradeoff. Every value size is a multiple of k, so the ratios are exact.
  struct Shape {
    std::size_t n, f, k, nu, value_size;
  };
  const algo::Family& cas = algo::family("cas");
  for (const Shape s : {Shape{5, 1, 3, 1, 60}, Shape{5, 1, 3, 2, 60},
                        Shape{5, 1, 3, 3, 60}, Shape{9, 2, 1, 2, 120},
                        Shape{9, 2, 2, 2, 120}, Shape{9, 2, 3, 2, 120},
                        Shape{9, 2, 4, 2, 120}, Shape{9, 2, 5, 2, 120}}) {
    algo::Deployment sys = cas.build({.n_servers = s.n,
                                      .f = s.f,
                                      .k = s.k,
                                      .n_writers = s.nu,
                                      .value_size = s.value_size});
    const StorageReport rep = park_active_writes(sys, cas, s.nu, s.value_size);
    const double b = 8.0 * static_cast<double>(s.value_size);
    const double want = static_cast<double>((s.nu + 1) * s.n) /
                        static_cast<double>(s.k);
    // The value-bit supremum, and the value bits where the total peaked.
    EXPECT_DOUBLE_EQ(rep.normalized_peak_total(b), want)
        << "N=" << s.n << " k=" << s.k << " nu=" << s.nu;
    EXPECT_DOUBLE_EQ(rep.peak_total.value_bits / b, want)
        << "N=" << s.n << " k=" << s.k << " nu=" << s.nu;
  }
}

// Tags and other metadata are the paper's o(log|V|) term: with one parked
// write, the value-bit peak / B stays put as B = log2|V| grows, while the
// metadata at the peak stays the same number of bits, so its share of the
// with-metadata peak vanishes.
TEST(Park, MetadataIsLittleOOfValueBits) {
  struct Shape {
    const char* algo;
    std::size_t f, k;
  };
  for (const Shape s : {Shape{"abd", 2, 0}, Shape{"cas", 1, 3}}) {
    const algo::Family& fam = algo::family(s.algo);
    double first_metadata_bits = 0;
    double overhead = 0;
    for (const std::size_t value_size : {16u, 120u, 1024u, 8192u}) {
      algo::Deployment sys = fam.build(
          {.n_servers = 5, .f = s.f, .k = s.k, .value_size = value_size});
      const StorageReport rep = park_active_writes(sys, fam, 1, value_size);
      const double b = 8.0 * static_cast<double>(value_size);
      const double value = rep.normalized_peak_total(b);
      // ABD: a full copy on each of N = 5 servers. CAS: v0 and the parked
      // version, a ceil(B/k)-bit element each, on each of 5 servers.
      const double elements = static_cast<double>((value_size + 2) / 3);
      EXPECT_DOUBLE_EQ(value, s.k == 0 ? 5.0 : 10.0 * elements /
                                                   static_cast<double>(
                                                       value_size))
          << s.algo << " B=" << b;
      const double metadata_bits =
          (rep.normalized_peak_total_with_metadata(b) - value) * b;
      EXPECT_GT(metadata_bits, 0.0) << s.algo << " B=" << b;
      if (first_metadata_bits == 0) first_metadata_bits = metadata_bits;
      EXPECT_DOUBLE_EQ(metadata_bits, first_metadata_bits)
          << s.algo << " B=" << b;
      overhead = metadata_bits / b / value;
    }
    // At B = 65536 the metadata is under 1% of the value bits.
    EXPECT_LT(overhead, 0.01) << s.algo;
  }
}

TEST(Park, AbdStorageFlatWithParkedWrites) {
  const std::size_t value_size = 64;
  const algo::Family& abd = algo::family("abd");
  for (const std::size_t nu : {1u, 2u, 4u}) {
    algo::Deployment sys = abd.build(
        {.n_servers = 5, .f = 2, .n_writers = nu, .value_size = value_size});
    const StorageReport rep = park_active_writes(sys, abd, nu, value_size);
    EXPECT_DOUBLE_EQ(rep.peak_total.value_bits,
                     5.0 * 8 * static_cast<double>(value_size))
        << "nu=" << nu;
  }
}

TEST(Park, ParkedWritesRemainActive) {
  const algo::Family& cas = algo::family("cas");
  algo::Deployment sys = cas.build(
      {.n_servers = 5, .f = 1, .k = 3, .n_writers = 2, .value_size = 60});
  park_active_writes(sys, cas, 2, 60);
  // No write responses: both operations are still active.
  EXPECT_EQ(sys.world.oplog().responses_since(0), 0u);
}

TEST(Park, RequiresEnoughWriters) {
  const algo::Family& cas = algo::family("cas");
  algo::Deployment sys = cas.build(
      {.n_servers = 5, .f = 1, .k = 3, .n_writers = 1, .value_size = 60});
  EXPECT_THROW(park_active_writes(sys, cas, 2, 60), ContractError);
}

TEST(Driver, LatenciesAreReasonable) {
  abd::Options aopt;
  abd::System sys = abd::make_system(aopt);
  Options opt;
  opt.writes_per_writer = 4;
  opt.reads_per_reader = 4;
  opt.value_size = aopt.value_size;
  opt.policy = Scheduler::Policy::kRoundRobin;
  const RunResult res = run(sys.world, sys.writers, sys.readers, opt);
  ASSERT_TRUE(res.completed);
  for (const auto lat : res.op_latency_steps) {
    // Every op needs at least quorum deliveries and at most a few round
    // trips to all servers interleaved with the other client.
    EXPECT_GE(lat, aopt.n_servers - aopt.f);
    EXPECT_LE(lat, 20 * aopt.n_servers);
  }
}

}  // namespace
}  // namespace memu::workload

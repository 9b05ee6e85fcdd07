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
  const std::size_t value_size = 60;
  const double shard_bits = 8.0 * 60 / 3;
  const algo::Family& cas = algo::family("cas");
  for (const std::size_t nu : {1u, 2u, 3u}) {
    algo::Deployment sys = cas.build({.n_servers = 5,
                                      .f = 1,
                                      .k = 3,
                                      .n_writers = nu,
                                      .value_size = value_size});
    const StorageReport rep = park_active_writes(sys, cas, nu, value_size);
    // v0 + nu parked versions on each of 5 servers.
    EXPECT_DOUBLE_EQ(rep.peak_total.value_bits,
                     5.0 * shard_bits * static_cast<double>(nu + 1))
        << "nu=" << nu;
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

#include "algo/ldr/ldr.h"

#include <gtest/gtest.h>

#include "adversary/harness.h"
#include "consistency/checker.h"
#include "engine/scheduler.h"
#include "workload/driver.h"

namespace memu::ldr {
namespace {

Invocation write_of(const Value& v) { return {OpType::kWrite, v}; }
Invocation read_op() { return {OpType::kRead, {}}; }

const Server& server_at(const System& sys, std::size_t i) {
  return dynamic_cast<const Server&>(sys.world.process(sys.servers[i]));
}

std::size_t replicas_holding_values(const System& sys) {
  std::size_t n = 0;
  for (std::size_t i = 0; i < sys.servers.size(); ++i)
    if (server_at(sys, i).is_replica() && server_at(sys, i).holds_value())
      ++n;
  return n;
}

TEST(Ldr, WriteThenReadReturnsWrittenValue) {
  Options opt;
  System sys = make_system(opt);
  Scheduler sched;

  const Value v = unique_value(1, 1, opt.value_size);
  sys.world.invoke(sys.writers[0], write_of(v));
  ASSERT_TRUE(sched.run_until_responses(sys.world, 1, 100000));
  sys.world.invoke(sys.readers[0], read_op());
  ASSERT_TRUE(sched.run_until_responses(sys.world, 1, 100000));
  EXPECT_EQ(sys.world.oplog().events().back().value, v);
}

TEST(Ldr, ReadBeforeAnyWriteReturnsInitialValue) {
  Options opt;
  System sys = make_system(opt);
  Scheduler sched;
  sys.world.invoke(sys.readers[0], read_op());
  ASSERT_TRUE(sched.run_until_responses(sys.world, 1, 100000));
  EXPECT_EQ(sys.world.oplog().events().back().value,
            enum_value(0, opt.value_size));
}

TEST(Ldr, SteadyStateStoresExactlyFPlus1Copies) {
  // THE LDR claim: after quiescence, only f + 1 replicas hold values —
  // the idealized replication line of Figure 1, versus ABD's N copies.
  Options opt;
  opt.n_servers = 7;  // 7 directories, 2f + 1 = 5 replicas, f + 1 = 3 copies
  opt.f = 2;
  System sys = make_system(opt);
  Scheduler sched;

  EXPECT_EQ(replicas_holding_values(sys), opt.f + 1);  // v0 placement

  for (std::uint64_t s = 1; s <= 4; ++s) {
    sys.world.invoke(sys.writers[0],
                     write_of(unique_value(1, s, opt.value_size)));
    ASSERT_TRUE(sched.run_until_responses(sys.world, 1, 100000));
    ASSERT_TRUE(sched.drain(sys.world, 100000));
    EXPECT_EQ(replicas_holding_values(sys), opt.f + 1) << "after write " << s;
    const double B = 8.0 * static_cast<double>(opt.value_size);
    EXPECT_DOUBLE_EQ(sys.world.total_server_storage().value_bits,
                     static_cast<double>(opt.f + 1) * B);
  }
}

TEST(Ldr, MetadataLivesOnAllServersValuesOnFew) {
  Options opt;
  opt.n_servers = 9;
  opt.f = 2;
  System sys = make_system(opt);
  Scheduler sched;
  sys.world.invoke(sys.writers[0],
                   write_of(unique_value(1, 1, opt.value_size)));
  ASSERT_TRUE(sched.run_until_responses(sys.world, 1, 100000));
  ASSERT_TRUE(sched.drain(sys.world, 100000));

  std::size_t with_value = 0, with_metadata = 0;
  for (std::size_t i = 0; i < opt.n_servers; ++i) {
    const auto bits = server_at(sys, i).state_size();
    if (bits.value_bits > 0) ++with_value;
    if (bits.metadata_bits > 0) ++with_metadata;
  }
  EXPECT_EQ(with_value, opt.f + 1);
  EXPECT_EQ(with_metadata, opt.n_servers);
}

TEST(Ldr, ToleratesFReplicaCrashesAtStart) {
  Options opt;
  opt.n_servers = 5;
  opt.f = 2;  // replicas = all 5, copies on 3
  System sys = make_system(opt);
  Scheduler sched;
  // Crash f replicas that do NOT hold v0 (indices f+1 .. 2f).
  sys.world.crash(sys.servers[3]);
  sys.world.crash(sys.servers[4]);

  const Value v = unique_value(1, 1, opt.value_size);
  sys.world.invoke(sys.writers[0], write_of(v));
  ASSERT_TRUE(sched.run_until_responses(sys.world, 1, 100000));
  sys.world.invoke(sys.readers[0], read_op());
  ASSERT_TRUE(sched.run_until_responses(sys.world, 1, 100000));
  EXPECT_EQ(sys.world.oplog().events().back().value, v);
}

TEST(Ldr, ToleratesCrashOfInitialValueHolders) {
  Options opt;
  opt.n_servers = 5;
  opt.f = 2;
  System sys = make_system(opt);
  Scheduler sched;
  // Crash f of the f + 1 initial holders: one copy of v0 survives.
  sys.world.crash(sys.servers[0]);
  sys.world.crash(sys.servers[1]);

  sys.world.invoke(sys.readers[0], read_op());
  ASSERT_TRUE(sched.run_until_responses(sys.world, 1, 100000));
  EXPECT_EQ(sys.world.oplog().events().back().value,
            enum_value(0, opt.value_size));
}

TEST(Ldr, ReaderRestartsWhenCopyReleasedUnderIt) {
  // Engineer the race: reader learns (t1, L1) from the directories, but its
  // get requests are delayed until after a second write commits t2 and
  // releases t1's copies. The reader must recover (restart or newer hit)
  // and return a value that regularity permits.
  Options opt;
  opt.n_servers = 5;
  opt.f = 1;
  System sys = make_system(opt);
  Scheduler sched;

  const Value v1 = unique_value(1, 1, opt.value_size);
  sys.world.invoke(sys.writers[0], write_of(v1));
  ASSERT_TRUE(sched.run_until_responses(sys.world, 1, 100000));
  ASSERT_TRUE(sched.drain(sys.world, 100000));

  // Start a read and deliver exactly its directory round: queries out,
  // responses back, until the reader has put its gets on the wire (its
  // dir-quorum is met after n - f response deliveries).
  sys.world.invoke(sys.readers[0], read_op());
  for (const NodeId s : sys.servers)
    sys.world.deliver({sys.readers[0], s});  // dir queries
  for (std::size_t i = 0; i < sys.dir_quorum; ++i)
    sys.world.deliver({sys.servers[i], sys.readers[0]});  // dir responses
  // The gets are now in flight; hold them by freezing the reader.
  sys.world.freeze(sys.readers[0]);

  const Value v2 = unique_value(1, 2, opt.value_size);
  sys.world.invoke(sys.writers[0], write_of(v2));
  ASSERT_TRUE(sched.run_until_responses(sys.world, 1, 100000));
  ASSERT_TRUE(sched.drain(sys.world, 100000));  // releases delivered

  sys.world.unfreeze(sys.readers[0]);
  ASSERT_TRUE(sched.run_until_responses(sys.world, 1, 100000));
  const Value got = sys.world.oplog().events().back().value;
  EXPECT_TRUE(got == v1 || got == v2);
}

TEST(Ldr, HistoriesAreRegularUnderRandomSchedules) {
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    Options opt;
    opt.n_readers = 2;
    System sys = make_system(opt);
    workload::Options wopt;
    wopt.writes_per_writer = 4;
    wopt.reads_per_reader = 4;
    wopt.value_size = opt.value_size;
    wopt.seed = seed;
    const auto res =
        workload::run(sys.world, sys.writers, sys.readers, wopt);
    ASSERT_TRUE(res.completed) << "seed " << seed;
    const auto verdict =
        check_regular_swsr(res.history, enum_value(0, opt.value_size));
    EXPECT_TRUE(verdict.ok) << "seed " << seed << ": " << verdict.violation;
  }
}

TEST(Ldr, AdversaryHarnessInjectivity) {
  const auto singleton = adversary::verify_singleton_injectivity(
      adversary::ldr_sut_factory(5, 1, 16), 6);
  EXPECT_TRUE(singleton.injective);
  EXPECT_TRUE(singleton.probes_consistent);

  const auto pairs = adversary::verify_pair_injectivity(
      adversary::ldr_sut_factory(5, 1, 16), 3);
  EXPECT_TRUE(pairs.all_found);
  EXPECT_TRUE(pairs.injective);
}

TEST(Ldr, RejectsTooFewServers) {
  Options opt;
  opt.n_servers = 4;
  opt.f = 2;  // needs 2f + 1 = 5
  EXPECT_THROW(make_system(opt), ContractError);
}

}  // namespace
}  // namespace memu::ldr

#include "algo/strip/strip.h"

#include <gtest/gtest.h>

#include "adversary/harness.h"
#include "consistency/checker.h"
#include "engine/scheduler.h"
#include "workload/driver.h"

namespace memu::strip {
namespace {

Invocation write_of(const Value& v) { return {OpType::kWrite, v}; }
Invocation read_op() { return {OpType::kRead, {}}; }

const Server& server_at(const System& sys, std::size_t i) {
  return dynamic_cast<const Server&>(sys.world.process(sys.servers[i]));
}

TEST(Strip, WriteThenReadDecodesValue) {
  Options opt;  // N=5, f=2, k=3
  System sys = make_system(opt);
  Scheduler sched;
  const Value v = unique_value(1, 1, opt.value_size);
  sys.world.invoke(sys.writers[0], write_of(v));
  ASSERT_TRUE(sched.run_until_responses(sys.world, 1, 100000));
  sys.world.invoke(sys.readers[0], read_op());
  ASSERT_TRUE(sched.run_until_responses(sys.world, 1, 100000));
  EXPECT_EQ(sys.world.oplog().events().back().value, v);
}

TEST(Strip, ReadBeforeWriteDecodesInitialFromSymbols) {
  Options opt;
  System sys = make_system(opt);
  Scheduler sched;
  sys.world.invoke(sys.readers[0], read_op());
  ASSERT_TRUE(sched.run_until_responses(sys.world, 1, 100000));
  EXPECT_EQ(sys.world.oplog().events().back().value,
            enum_value(0, opt.value_size));
}

TEST(Strip, CommitStripsFullCopiesToSymbols) {
  // THE mechanism: after a committed, quiesced write every server holds a
  // B/(N-f)-bit symbol, not a B-bit copy — total N/(N-f) * B.
  Options opt;
  opt.n_servers = 5;
  opt.f = 2;           // k = 3
  opt.value_size = 60;  // symbol = 20 bytes
  opt.delta = 0;        // keep only the newest committed version
  System sys = make_system(opt);
  Scheduler sched;

  sys.world.invoke(sys.writers[0],
                   write_of(unique_value(1, 1, opt.value_size)));
  ASSERT_TRUE(sched.run_until_responses(sys.world, 1, 100000));
  ASSERT_TRUE(sched.drain(sys.world, 100000));

  for (std::size_t i = 0; i < opt.n_servers; ++i) {
    EXPECT_EQ(server_at(sys, i).full_copies(), 0u) << i;
    EXPECT_EQ(server_at(sys, i).symbols(), 1u) << i;
  }
  const double B = 8.0 * 60;
  EXPECT_DOUBLE_EQ(sys.world.total_server_storage().value_bits,
                   5.0 * B / 3.0);  // N/(N-f) * B: Singleton-optimal
}

TEST(Strip, ActiveWriteCostsFullValues) {
  // Mid-write (stored, not committed): servers hold FULL copies — the
  // optimistic tradeoff's worst case.
  Options opt;
  opt.value_size = 60;
  System sys = make_system(opt);
  Scheduler sched;

  sys.world.invoke(sys.writers[0],
                   write_of(unique_value(1, 1, opt.value_size)));
  const auto& writer =
      dynamic_cast<const Writer&>(sys.world.process(sys.writers[0]));
  ASSERT_TRUE(sched.run_until(
      sys.world,
      [&](const World&) { return writer.phase() == Writer::Phase::kCommit; },
      100000));
  // Stores delivered (quorum acks received), commits not yet: full copies.
  std::size_t fulls = 0;
  for (std::size_t i = 0; i < opt.n_servers; ++i)
    fulls += server_at(sys, i).full_copies();
  EXPECT_GE(fulls, sys.quorum);
}

TEST(Strip, ToleratesFCrashes) {
  Options opt;
  opt.n_servers = 7;
  opt.f = 3;
  System sys = make_system(opt);
  sys.world.crash(sys.servers[1]);
  sys.world.crash(sys.servers[4]);
  sys.world.crash(sys.servers[6]);
  Scheduler sched;
  const Value v = unique_value(1, 1, opt.value_size);
  sys.world.invoke(sys.writers[0], write_of(v));
  ASSERT_TRUE(sched.run_until_responses(sys.world, 1, 100000));
  sys.world.invoke(sys.readers[0], read_op());
  ASSERT_TRUE(sched.run_until_responses(sys.world, 1, 100000));
  EXPECT_EQ(sys.world.oplog().events().back().value, v);
}

TEST(Strip, ReaderServedByForwardingWhenStoreIsLate) {
  // Reader learns of a committed tag whose store has not reached some
  // servers yet: registered servers must forward on arrival.
  Options opt;
  System sys = make_system(opt);
  Scheduler sched(Scheduler::Policy::kRandom, 31);
  const Value v = unique_value(1, 1, opt.value_size);
  sys.world.invoke(sys.writers[0], write_of(v));
  ASSERT_TRUE(sched.run_until_responses(sys.world, 1, 100000));
  // Immediately read with stragglers still in flight.
  sys.world.invoke(sys.readers[0], read_op());
  ASSERT_TRUE(sched.run_until_responses(sys.world, 1, 100000));
  EXPECT_EQ(sys.world.oplog().events().back().value, v);
}

TEST(Strip, GcBoundsCommittedVersions) {
  Options opt;
  opt.delta = 1;
  opt.value_size = 60;
  System sys = make_system(opt);
  Scheduler sched;
  for (std::uint64_t s = 1; s <= 6; ++s) {
    sys.world.invoke(sys.writers[0],
                     write_of(unique_value(1, s, opt.value_size)));
    ASSERT_TRUE(sched.run_until_responses(sys.world, 1, 100000));
  }
  sched.drain(sys.world, 100000);
  for (std::size_t i = 0; i < opt.n_servers; ++i)
    EXPECT_LE(server_at(sys, i).symbols(), 2u) << i;
  sys.world.invoke(sys.readers[0], read_op());
  ASSERT_TRUE(sched.run_until_responses(sys.world, 1, 100000));
  EXPECT_EQ(value_identity(sys.world.oplog().events().back().value).seq, 6u);
}

TEST(Strip, NoGcAccretesSymbolsNotFullValues) {
  Options opt;
  opt.value_size = 60;
  opt.delta = std::nullopt;
  System sys = make_system(opt);
  Scheduler sched;
  for (std::uint64_t s = 1; s <= 4; ++s) {
    sys.world.invoke(sys.writers[0],
                     write_of(unique_value(1, s, opt.value_size)));
    ASSERT_TRUE(sched.run_until_responses(sys.world, 1, 100000));
  }
  sched.drain(sys.world, 100000);
  // v0 + 4 writes, all committed and stripped: 5 symbols, 0 full copies.
  EXPECT_EQ(server_at(sys, 0).symbols(), 5u);
  EXPECT_EQ(server_at(sys, 0).full_copies(), 0u);
}

TEST(Strip, HistoriesAreAtomicUnderRandomSchedules) {
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    Options opt;
    opt.n_writers = 2;
    opt.n_readers = 2;
    System sys = make_system(opt);
    workload::Options wopt;
    wopt.writes_per_writer = 2;
    wopt.reads_per_reader = 2;
    wopt.value_size = opt.value_size;
    wopt.seed = seed;
    const auto res = workload::run(sys.world, sys.writers, sys.readers, wopt);
    ASSERT_TRUE(res.completed) << "seed " << seed;
    const auto verdict =
        check_atomic(res.history, enum_value(0, opt.value_size));
    EXPECT_TRUE(verdict.ok) << "seed " << seed << ": " << verdict.violation;
  }
}

TEST(Strip, AdversaryHarnessInjectivity) {
  const auto factory = adversary::strip_sut_factory(5, 1, 18);
  const auto singleton = adversary::verify_singleton_injectivity(factory, 6);
  EXPECT_TRUE(singleton.injective);
  EXPECT_TRUE(singleton.probes_consistent);
  const auto pairs = adversary::verify_pair_injectivity(factory, 3);
  EXPECT_TRUE(pairs.all_found);
  EXPECT_TRUE(pairs.injective);
  EXPECT_TRUE(pairs.all_single_change);
}

TEST(Strip, ReaderRestartsWhenTargetGarbageCollected) {
  // Engineer the GC race: a reader learns tag t1 from its query, but t2
  // commits (delta = 0 collects t1) before the reader's gets are delivered.
  // The gets answer kGced on every server and the reader must restart and
  // return a regular value.
  Options opt;
  opt.n_servers = 5;
  opt.f = 2;
  opt.delta = 0;
  System sys = make_system(opt);
  Scheduler sched;

  const Value v1 = unique_value(1, 1, opt.value_size);
  sys.world.invoke(sys.writers[0], write_of(v1));
  ASSERT_TRUE(sched.run_until_responses(sys.world, 1, 100000));
  ASSERT_TRUE(sched.drain(sys.world, 100000));

  // Reader completes its query round; hold its gets by freezing it.
  sys.world.invoke(sys.readers[0], read_op());
  for (const NodeId s : sys.servers)
    sys.world.deliver({sys.readers[0], s});  // queries
  for (std::size_t i = 0; i < sys.quorum; ++i)
    sys.world.deliver({sys.servers[i], sys.readers[0]});  // responses
  sys.world.freeze(sys.readers[0]);  // gets for t1 held on the wire

  const Value v2 = unique_value(1, 2, opt.value_size);
  sys.world.invoke(sys.writers[0], write_of(v2));
  ASSERT_TRUE(sched.run_until_responses(sys.world, 1, 100000));
  ASSERT_TRUE(sched.drain(sys.world, 100000));  // t1 garbage-collected

  sys.world.unfreeze(sys.readers[0]);
  ASSERT_TRUE(sched.run_until_responses(sys.world, 1, 100000));
  const auto& reader =
      dynamic_cast<const Reader&>(sys.world.process(sys.readers[0]));
  EXPECT_GE(reader.restarts(), 1u);
  EXPECT_EQ(sys.world.oplog().events().back().value, v2);
}

TEST(Strip, RejectsInsufficientServers) {
  Options opt;
  opt.n_servers = 4;
  opt.f = 2;
  EXPECT_THROW(make_system(opt), ContractError);
}

}  // namespace
}  // namespace memu::strip

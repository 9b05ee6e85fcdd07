#include "algo/gossip/gossip.h"

#include <gtest/gtest.h>

#include "adversary/harness.h"
#include "consistency/checker.h"
#include "engine/scheduler.h"

namespace memu::gossip {
namespace {

Invocation write_of(const Value& v) { return {OpType::kWrite, v}; }
Invocation read_op() { return {OpType::kRead, {}}; }

const Server& server_at(const System& sys, std::size_t i) {
  return dynamic_cast<const Server&>(sys.world.process(sys.servers[i]));
}

TEST(Gossip, WriteThenReadReturnsWrittenValue) {
  Options opt;
  System sys = make_system(opt);
  Scheduler sched;

  const Value v = unique_value(1, 1, opt.value_size);
  sys.world.invoke(sys.writer, write_of(v));
  ASSERT_TRUE(sched.run_until_responses(sys.world, 1, 100000));
  sys.world.invoke(sys.readers[0], read_op());
  ASSERT_TRUE(sched.run_until_responses(sys.world, 1, 100000));
  EXPECT_EQ(sys.world.oplog().events().back().value, v);
}

TEST(Gossip, GossipPropagatesWithoutDirectStore) {
  // Deliver the store to exactly ONE server, freeze the writer (its other
  // store messages never arrive), and check that gossip alone propagates
  // the value to every live server.
  Options opt;
  System sys = make_system(opt);
  const Value v = unique_value(1, 1, opt.value_size);
  sys.world.invoke(sys.writer, write_of(v));

  sys.world.deliver({sys.writer, sys.servers[0]});
  sys.world.freeze(sys.writer);

  Scheduler sched;
  ASSERT_TRUE(sched.drain(sys.world, 100000));
  for (std::size_t i = 0; i < opt.n_servers; ++i) {
    EXPECT_EQ(server_at(sys, i).tag().seq, 1u) << "server " << i;
  }
}

TEST(Gossip, GossipStormIsBounded) {
  // Each server adopts once and gossips once per tag: a full write costs at
  // most N (stores) + N acks + N(N-1) gossips deliveries.
  Options opt;
  System sys = make_system(opt);
  Scheduler sched;
  const Value v = unique_value(1, 1, opt.value_size);
  sys.world.invoke(sys.writer, write_of(v));
  ASSERT_TRUE(sched.drain(sys.world, 100000));
  const std::size_t n = opt.n_servers;
  EXPECT_LE(sched.steps_taken(), n + n + n * (n - 1));
}

TEST(Gossip, ToleratesFailures) {
  Options opt;
  opt.n_servers = 7;
  opt.f = 3;
  System sys = make_system(opt);
  sys.world.crash(sys.servers[0]);
  sys.world.crash(sys.servers[3]);
  sys.world.crash(sys.servers[5]);

  Scheduler sched;
  const Value v = unique_value(1, 1, opt.value_size);
  sys.world.invoke(sys.writer, write_of(v));
  ASSERT_TRUE(sched.run_until_responses(sys.world, 1, 100000));
  sys.world.invoke(sys.readers[0], read_op());
  ASSERT_TRUE(sched.run_until_responses(sys.world, 1, 100000));
  EXPECT_EQ(sys.world.oplog().events().back().value, v);
}

TEST(Gossip, HistoriesAreRegularUnderRandomSchedules) {
  for (std::uint64_t seed = 0; seed < 15; ++seed) {
    Options opt;
    opt.n_readers = 2;
    System sys = make_system(opt);
    Scheduler sched(Scheduler::Policy::kRandom, seed);

    // Interleave writes and reads.
    for (std::uint64_t s = 1; s <= 3; ++s) {
      sys.world.invoke(sys.writer, write_of(unique_value(1, s, opt.value_size)));
      sys.world.invoke(sys.readers[0], read_op());
      sys.world.invoke(sys.readers[1], read_op());
      ASSERT_TRUE(sched.run_until_responses(sys.world, 3, 100000));
    }
    const History h = History::from_oplog(sys.world.oplog());
    const auto verdict = check_regular_swsr(h, enum_value(0, opt.value_size));
    EXPECT_TRUE(verdict.ok) << "seed " << seed << ": " << verdict.violation;
  }
}

TEST(Gossip, SingleQuorumReadIsNotNecessarilyAtomic) {
  // The one-phase reader is regular but not atomic; this documents the
  // distinction rather than asserting a violation must occur on any given
  // seed (new-old inversion needs an adversarial interleaving).
  Options opt;
  System sys = make_system(opt);
  Scheduler sched;
  const Value v = unique_value(1, 1, opt.value_size);
  sys.world.invoke(sys.writer, write_of(v));
  ASSERT_TRUE(sched.run_until_responses(sys.world, 1, 100000));
  sys.world.invoke(sys.readers[0], read_op());
  ASSERT_TRUE(sched.run_until_responses(sys.world, 1, 100000));
  const History h = History::from_oplog(sys.world.oplog());
  EXPECT_TRUE(check_regular_swsr(h, enum_value(0, opt.value_size)).ok);
  EXPECT_TRUE(check_atomic(h, enum_value(0, opt.value_size)).ok);
}

TEST(Gossip, ServerStorageIsOneValue) {
  Options opt;
  opt.value_size = 128;
  System sys = make_system(opt);
  Scheduler sched;
  sys.world.invoke(sys.writer,
                   write_of(unique_value(1, 1, opt.value_size)));
  ASSERT_TRUE(sched.drain(sys.world, 100000));
  EXPECT_DOUBLE_EQ(sys.world.total_server_storage().value_bits,
                   static_cast<double>(opt.n_servers) * 8 * 128);
}

// The adversary harness on the gossiping algorithm: Theorem 5.1's probe
// (flush inter-server channels before reading).
TEST(Gossip, Theorem51HarnessInjectivity) {
  adversary::ProbeOptions probe;
  probe.flush_gossip = true;
  const auto report = adversary::verify_pair_injectivity(
      adversary::gossip_sut_factory(5, 2, 16), 3, probe);
  EXPECT_TRUE(report.all_found);
  EXPECT_TRUE(report.all_consistent);
  EXPECT_TRUE(report.injective);
}

TEST(Gossip, TheoremB1HarnessInjectivity) {
  const auto report = adversary::verify_singleton_injectivity(
      adversary::gossip_sut_factory(5, 2, 16), 6);
  EXPECT_TRUE(report.injective);
  EXPECT_TRUE(report.probes_consistent);
}

TEST(Gossip, RejectsInsufficientServers) {
  Options opt;
  opt.n_servers = 4;
  opt.f = 2;
  EXPECT_THROW(make_system(opt), ContractError);
}

}  // namespace
}  // namespace memu::gossip

// CAS with the hash-announce phase — the two-value-dependent-phase shape of
// the Byzantine-tolerant algorithms ([2, 15]) behind the paper's Section 6.5
// conjecture — plus the conjecture harness itself (staged delivery with
// bulk-only blocking).
#include <gtest/gtest.h>

#include "adversary/theorem65.h"
#include "algo/cas/system.h"
#include "common/hash.h"
#include "consistency/checker.h"
#include "engine/scheduler.h"
#include "tests/algo/probe.h"
#include "workload/driver.h"

namespace memu::cas {
namespace {

Options hash_options() {
  Options opt;
  opt.hash_phase = true;
  return opt;
}

TEST(CasHash, WriteThenReadStillWorks) {
  System sys = make_system(hash_options());
  Scheduler sched;
  const Value v = unique_value(1, 1, 60);
  sys.world.invoke(sys.writers[0], {OpType::kWrite, v});
  ASSERT_TRUE(sched.run_until_responses(sys.world, 1, 100000));
  sys.world.invoke(sys.readers[0], {OpType::kRead, {}});
  ASSERT_TRUE(sched.run_until_responses(sys.world, 1, 100000));
  EXPECT_EQ(sys.world.oplog().events().back().value, v);
}

TEST(CasHash, AnnouncePhaseAddsOneRoundTrip) {
  auto steps_for_write = [](bool hash) {
    Options opt;
    opt.hash_phase = hash;
    System sys = make_system(opt);
    Scheduler sched;
    sys.world.invoke(sys.writers[0],
                     {OpType::kWrite, unique_value(1, 1, opt.value_size)});
    sched.run_until_responses(sys.world, 1, 100000);
    sched.drain(sys.world, 100000);
    return sched.steps_taken();
  };
  // One extra phase = N announces + N acks.
  EXPECT_EQ(steps_for_write(true), steps_for_write(false) + 2 * 5);
}

TEST(CasHash, AnnounceMessagesAreValueDependentButNotBulk) {
  const HashAnnounce msg(1, Tag{1, 1}, 42);
  EXPECT_TRUE(msg.value_dependent());
  EXPECT_FALSE(msg.value_bulk());
  // Bulk pre-writes remain bulk.
  const PreWriteReq pw(1, Tag{1, 1}, Bytes{1, 2, 3});
  EXPECT_TRUE(pw.value_dependent());
  EXPECT_TRUE(pw.value_bulk());
}

TEST(CasHash, ServerRejectsMismatchedPreWrite) {
  // The integrity semantics the announce phase exists for: a pre-write
  // whose element does not hash to the announced value is discarded.
  World w;
  const auto codec = make_rs_codec(1, 1);
  const Value v0 = enum_value(0, 16);
  const NodeId server = w.add_process(
      std::make_unique<Server>(codec->encode(v0)[0], std::nullopt));
  const NodeId client =
      w.add_process(std::make_unique<memu::testing::Probe>());

  const Bytes good{1, 2, 3, 4};
  const Bytes forged{9, 9, 9, 9};
  w.enqueue({client, server},
            make_msg<HashAnnounce>(1, Tag{1, 1}, fnv1a64(good)));
  w.deliver({client, server});
  w.enqueue({client, server}, make_msg<PreWriteReq>(2, Tag{1, 1}, forged));
  w.deliver({client, server});

  const auto& srv = dynamic_cast<const Server&>(w.process(server));
  EXPECT_EQ(srv.rejected_pre_writes(), 1u);
  EXPECT_EQ(srv.stored_versions(), 1u);  // only v0; forgery dropped

  w.enqueue({client, server}, make_msg<PreWriteReq>(3, Tag{1, 1}, good));
  w.deliver({client, server});
  EXPECT_EQ(srv.stored_versions(), 2u);  // matching element accepted
}

TEST(CasHash, HistoriesRemainAtomic) {
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    Options opt = hash_options();
    opt.n_writers = 2;
    System sys = make_system(opt);
    workload::Options wopt;
    wopt.writes_per_writer = 2;
    wopt.reads_per_reader = 2;
    wopt.value_size = opt.value_size;
    wopt.seed = seed;
    const auto res = workload::run(sys.world, sys.writers, sys.readers, wopt);
    ASSERT_TRUE(res.completed) << seed;
    EXPECT_TRUE(check_atomic(res.history, enum_value(0, opt.value_size)).ok)
        << seed;
  }
}

TEST(CasHash, HashStorageIsMetadata) {
  Options opt = hash_options();
  opt.value_size = 600;  // make the o(B) gap obvious
  System sys = make_system(opt);
  Scheduler sched;
  sys.world.invoke(sys.writers[0],
                   {OpType::kWrite, unique_value(1, 1, opt.value_size)});
  ASSERT_TRUE(sched.run_until_responses(sys.world, 1, 100000));
  sched.drain(sys.world, 100000);
  const auto& srv = dynamic_cast<const Server&>(sys.world.process(sys.servers[0]));
  EXPECT_GE(srv.announced_hashes(), 1u);
  const auto bits = sys.world.total_server_storage();
  EXPECT_LT(bits.metadata_bits, 0.2 * bits.value_bits);
}

// The Section 6.5 conjecture, executed: the staged-delivery construction
// still works when the writers have a second (hash) value-dependent phase,
// as long as probes block only BULK messages.
TEST(CasHash, Conjecture65StagedInjectivity) {
  const auto report = adversary::verify_staged_injectivity(
      adversary::cas_hash_mw_factory(5, 1, 3, 2, 18), 3, 2);
  EXPECT_TRUE(report.all_parked);
  EXPECT_TRUE(report.all_completed);
  EXPECT_TRUE(report.a_monotone);
  EXPECT_TRUE(report.injective);
  EXPECT_TRUE(report.single_point_injective);  // accreting storage
}

TEST(CasHash, Conjecture65MatchesPlainCasStages) {
  // The hash phase changes nothing about WHERE values become recoverable:
  // same a-vector as plain CAS (the quorum threshold), because the hashes
  // carry o(log|V|) bits.
  const auto plain = adversary::run_staged_execution(
      adversary::cas_mw_factory(5, 1, 3, 2, 18),
      {enum_value(1, 18), enum_value(2, 18)});
  const auto hashed = adversary::run_staged_execution(
      adversary::cas_hash_mw_factory(5, 1, 3, 2, 18),
      {enum_value(1, 18), enum_value(2, 18)});
  ASSERT_TRUE(plain.completed);
  ASSERT_TRUE(hashed.completed);
  EXPECT_EQ(plain.a, hashed.a);
  EXPECT_EQ(plain.sigma, hashed.sigma);
}

}  // namespace
}  // namespace memu::cas

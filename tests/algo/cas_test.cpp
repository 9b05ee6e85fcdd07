#include <gtest/gtest.h>

#include "algo/cas/system.h"
#include "engine/scheduler.h"
#include "tests/algo/probe.h"
#include "workload/driver.h"

namespace memu::cas {
namespace {

Invocation write_of(const Value& v) { return {OpType::kWrite, v}; }
Invocation read_op() { return {OpType::kRead, {}}; }

const Writer& writer_at(const System& sys, std::size_t i) {
  return dynamic_cast<const Writer&>(sys.world.process(sys.writers[i]));
}

const Server& server_at(const System& sys, std::size_t i) {
  return dynamic_cast<const Server&>(sys.world.process(sys.servers[i]));
}

TEST(Cas, QuorumFormula) {
  EXPECT_EQ(cas_quorum(5, 3), 4u);
  EXPECT_EQ(cas_quorum(5, 1), 3u);
  EXPECT_EQ(cas_quorum(21, 11), 16u);
  EXPECT_EQ(cas_quorum(21, 1), 11u);
}

TEST(Cas, WriteThenReadDecodesWrittenValue) {
  Options opt;  // N=5, f=1, k=3
  System sys = make_system(opt);
  Scheduler sched;

  const Value v = unique_value(1, 1, opt.value_size);
  sys.world.invoke(sys.writers[0], write_of(v));
  ASSERT_TRUE(sched.run_until_responses(sys.world, 1, 10000));

  sys.world.invoke(sys.readers[0], read_op());
  ASSERT_TRUE(sched.run_until_responses(sys.world, 1, 10000));
  EXPECT_EQ(sys.world.oplog().events().back().value, v);
}

TEST(Cas, ReadBeforeAnyWriteDecodesInitialValue) {
  Options opt;
  System sys = make_system(opt);
  Scheduler sched;
  sys.world.invoke(sys.readers[0], read_op());
  ASSERT_TRUE(sched.run_until_responses(sys.world, 1, 10000));
  EXPECT_EQ(sys.world.oplog().events().back().value,
            enum_value(0, opt.value_size));
}

TEST(Cas, OperationsTerminateWithFCrashes) {
  Options opt;
  opt.n_servers = 7;
  opt.f = 2;
  opt.k = 3;  // k <= N - 2f
  System sys = make_system(opt);
  Scheduler sched;

  sys.world.crash(sys.servers[2]);
  sys.world.crash(sys.servers[6]);

  const Value v = unique_value(1, 1, opt.value_size);
  sys.world.invoke(sys.writers[0], write_of(v));
  ASSERT_TRUE(sched.run_until_responses(sys.world, 1, 20000));
  sys.world.invoke(sys.readers[0], read_op());
  ASSERT_TRUE(sched.run_until_responses(sys.world, 1, 20000));
  EXPECT_EQ(sys.world.oplog().events().back().value, v);
}

TEST(Cas, ServerStoresShardsNotFullValues) {
  Options opt;
  opt.value_size = 60;
  opt.k = 3;
  System sys = make_system(opt);
  Scheduler sched;

  sys.world.invoke(sys.writers[0],
                   write_of(unique_value(1, 1, opt.value_size)));
  ASSERT_TRUE(sched.run_until_responses(sys.world, 1, 10000));
  sched.drain(sys.world, 10000);

  // Each server holds shards of B/k bits per version (v0 + one write).
  const double shard_bits = 8.0 * 20;  // 60 bytes / k=3
  for (std::size_t i = 0; i < opt.n_servers; ++i) {
    EXPECT_DOUBLE_EQ(sys.world.process(sys.servers[i]).state_size().value_bits,
                     2 * shard_bits);
  }
}

// Runs `writes` sequential writes from writer 0, then drains the world.
void write_sequentially(System& sys, const Options& opt,
                        std::uint64_t writes) {
  Scheduler sched;
  for (std::uint64_t s = 1; s <= writes; ++s) {
    sys.world.invoke(sys.writers[0],
                     write_of(unique_value(1, s, opt.value_size)));
    ASSERT_TRUE(sched.run_until_responses(sys.world, 1, 10000));
  }
  sched.drain(sys.world, 100000);
}

TEST(Cas, PlainCasNeverGarbageCollects) {
  Options opt;
  opt.delta = std::nullopt;
  System sys = make_system(opt);
  ASSERT_NO_FATAL_FAILURE(write_sequentially(sys, opt, 8));
  // v0 + 8 writes on every server: 9 elements of B/3 bits on 5 servers.
  for (std::size_t i = 0; i < opt.n_servers; ++i)
    EXPECT_EQ(server_at(sys, i).stored_versions(), 9u) << i;
  EXPECT_DOUBLE_EQ(sys.world.total_server_storage().value_bits /
                       (8.0 * static_cast<double>(opt.value_size)),
                   15.0);
}

TEST(Cas, CasgcBoundsStoredVersions) {
  // After 8 sequential writes CASGC(delta) holds exactly delta + 1 versions
  // per server, (delta + 1) N / k times B in all.
  for (const std::size_t delta : {0u, 1u, 3u}) {
    Options opt;
    opt.delta = delta;
    System sys = make_system(opt);
    ASSERT_NO_FATAL_FAILURE(write_sequentially(sys, opt, 8));
    for (std::size_t i = 0; i < opt.n_servers; ++i) {
      EXPECT_EQ(server_at(sys, i).stored_versions(), delta + 1)
          << "delta=" << delta << " server " << i;
      EXPECT_GT(server_at(sys, i).gc_watermark(), Tag::initial()) << i;
    }
    EXPECT_DOUBLE_EQ(sys.world.total_server_storage().value_bits /
                         (8.0 * static_cast<double>(opt.value_size)),
                     static_cast<double>(delta + 1) * 5.0 / 3.0)
        << "delta=" << delta;
    // Reads still work after GC.
    Scheduler sched;
    sys.world.invoke(sys.readers[0], read_op());
    ASSERT_TRUE(sched.run_until_responses(sys.world, 1, 10000));
    EXPECT_EQ(value_identity(sys.world.oplog().events().back().value).seq,
              8u);
  }
}

// Plain CAS never collects garbage, so under a fair schedule its peak is
// every version ever written, whatever the interleaving. Two writers x three
// writes leave v0 + 6 versions, a B/3-bit element each, on 5 servers:
// 35/3 B under round-robin and each random seed below. That is above the
// 5 B of two parked writes; the parked-write driver pins the number of
// active writes, not the largest peak.
TEST(Cas, PlainCasPeakIsEveryVersionUnderAnySchedule) {
  struct Schedule {
    Scheduler::Policy policy;
    std::uint64_t seed;
  };
  for (const Schedule sch : {Schedule{Scheduler::Policy::kRoundRobin, 0},
                             Schedule{Scheduler::Policy::kRandom, 1},
                             Schedule{Scheduler::Policy::kRandom, 7},
                             Schedule{Scheduler::Policy::kRandom, 42},
                             Schedule{Scheduler::Policy::kRandom, 1337}}) {
    Options opt;
    opt.n_writers = 2;
    opt.n_readers = 0;
    opt.value_size = 120;
    System sys = make_system(opt);
    workload::Options wopt;
    wopt.writes_per_writer = 3;
    wopt.reads_per_reader = 0;
    wopt.value_size = opt.value_size;
    wopt.policy = sch.policy;
    wopt.seed = sch.seed;
    const workload::RunResult res =
        workload::run(sys.world, sys.writers, sys.readers, wopt);
    ASSERT_TRUE(res.completed) << "seed " << sch.seed;
    EXPECT_DOUBLE_EQ(res.storage.normalized_peak_total(8.0 * 120), 35.0 / 3.0)
        << "seed " << sch.seed;
  }
}

// The heart of the paper's erasure-coding upper bound: storage grows
// linearly with the number of *active* (stalled) writes. We park nu writers
// after their pre-write phase (finalize withheld) and measure.
TEST(Cas, StorageGrowsLinearlyWithActiveWrites) {
  Options opt;
  opt.n_servers = 5;
  opt.f = 1;
  opt.k = 3;
  opt.n_writers = 3;
  opt.value_size = 60;
  System sys = make_system(opt);
  Scheduler sched;

  const double shard_bits = 8.0 * 60 / 3;
  for (std::size_t w = 0; w < 3; ++w) {
    sys.world.invoke(sys.writers[w],
                     write_of(unique_value(static_cast<std::uint32_t>(w + 1),
                                           1, opt.value_size)));
    // Run until this writer has gathered its pre-write quorum (it is about
    // to finalize), then freeze it so the finalize never leaves.
    ASSERT_TRUE(sched.run_until(
        sys.world,
        [&](const World&) {
          return writer_at(sys, w).phase() == Writer::Phase::kFinalize;
        },
        20000));
    sys.world.freeze(sys.writers[w]);
    // Deliver the remaining pre-writes... they are already out; drain what
    // is deliverable so every server holds the shard.
    sched.drain(sys.world, 10000);

    const double total = sys.world.total_server_storage().value_bits;
    // v0 plus (w + 1) parked versions on all 5 servers.
    EXPECT_DOUBLE_EQ(total, 5.0 * shard_bits * (2.0 + static_cast<double>(w)));
  }
}

TEST(Cas, ConcurrentWritersBothTerminate) {
  Options opt;
  opt.n_writers = 2;
  System sys = make_system(opt);
  Scheduler sched(Scheduler::Policy::kRandom, 17);

  sys.world.invoke(sys.writers[0],
                   write_of(unique_value(1, 1, opt.value_size)));
  sys.world.invoke(sys.writers[1],
                   write_of(unique_value(2, 1, opt.value_size)));
  ASSERT_TRUE(sched.run_until_responses(sys.world, 2, 40000));

  sys.world.invoke(sys.readers[0], read_op());
  ASSERT_TRUE(sched.run_until_responses(sys.world, 1, 40000));
  const auto id = value_identity(sys.world.oplog().events().back().value);
  EXPECT_TRUE(id.writer == 1 || id.writer == 2);
}

TEST(Cas, ReaderServedByLateForwarding) {
  // A reader that queries while a write's pre-write messages are still in
  // flight gets elements forwarded on arrival (the server "send when it
  // arrives" path). We engineer this: writer finalizes at a quorum that
  // excludes one slow server; the reader then must be servable regardless.
  Options opt;
  opt.n_servers = 5;
  opt.f = 1;
  opt.k = 3;
  System sys = make_system(opt);
  Scheduler sched(Scheduler::Policy::kRandom, 23);

  const Value v = unique_value(1, 1, opt.value_size);
  sys.world.invoke(sys.writers[0], write_of(v));
  ASSERT_TRUE(sched.run_until_responses(sys.world, 1, 20000));
  // Immediately read without draining leftover pre-writes/finalizes.
  sys.world.invoke(sys.readers[0], read_op());
  ASSERT_TRUE(sched.run_until_responses(sys.world, 1, 20000));
  EXPECT_EQ(sys.world.oplog().events().back().value, v);
}

TEST(Cas, SequentialWritesAreOrdered) {
  Options opt;
  System sys = make_system(opt);
  Scheduler sched;
  for (std::uint64_t s = 1; s <= 4; ++s) {
    sys.world.invoke(sys.writers[0],
                     write_of(unique_value(1, s, opt.value_size)));
    ASSERT_TRUE(sched.run_until_responses(sys.world, 1, 10000));
  }
  sys.world.invoke(sys.readers[0], read_op());
  ASSERT_TRUE(sched.run_until_responses(sys.world, 1, 10000));
  EXPECT_EQ(value_identity(sys.world.oplog().events().back().value).seq, 4u);
}

TEST(Cas, KDefaultsToMaximum) {
  Options opt;
  opt.n_servers = 9;
  opt.f = 2;
  opt.k = 0;  // auto: N - 2f = 5
  System sys = make_system(opt);
  EXPECT_EQ(sys.codec->k(), 5u);
  EXPECT_EQ(sys.quorum, cas_quorum(9, 5));
}

TEST(Cas, InvalidParametersRejected) {
  Options opt;
  opt.n_servers = 5;
  opt.f = 2;
  opt.k = 3;  // needs k <= 1
  EXPECT_THROW(make_system(opt), ContractError);
}

TEST(Cas, WellFormednessViolationDetected) {
  Options opt;
  System sys = make_system(opt);
  sys.world.invoke(sys.writers[0],
                   write_of(unique_value(1, 1, opt.value_size)));
  EXPECT_THROW(sys.world.invoke(sys.writers[0],
                                write_of(unique_value(1, 2, opt.value_size))),
               ContractError);
}

// Server-level unit tests via the Probe.
TEST(CasServer, QueryReturnsHighestFinalizedTag) {
  World w;
  const auto codec = make_rs_codec(1, 1);
  const Value v0 = enum_value(0, 16);
  const NodeId server =
      w.add_process(std::make_unique<Server>(codec->encode(v0)[0],
                                             std::nullopt));
  const NodeId client =
      w.add_process(std::make_unique<memu::testing::Probe>());
  // add_process stores a slab copy of its argument, so grab the live
  // in-world probe (never detached here: this World is never forked).
  auto* probe = &dynamic_cast<memu::testing::Probe&>(w.process(client));

  Tag seen;
  probe->set_callback([&](NodeId, const MessagePayload& m) {
    if (const auto* qr = dynamic_cast<const QueryResp*>(&m)) seen = qr->tag;
  });

  // Pre-write tag (5,1) but do not finalize: query must still return (0,0).
  w.enqueue({client, server},
            make_msg<PreWriteReq>(1, Tag{5, 1}, codec->encode(v0)[0]));
  w.deliver({client, server});
  w.enqueue({client, server}, make_msg<QueryReq>(2));
  w.deliver({client, server});
  w.deliver({server, client});  // pre-write ack
  w.deliver({server, client});  // query resp
  EXPECT_EQ(seen, Tag::initial());

  // Finalize, then query again.
  w.enqueue({client, server}, make_msg<FinalizeReq>(3, Tag{5, 1}));
  w.deliver({client, server});
  w.enqueue({client, server}, make_msg<QueryReq>(4));
  w.deliver({client, server});
  w.deliver({server, client});
  w.deliver({server, client});
  EXPECT_EQ(seen, (Tag{5, 1}));
}

TEST(CasServer, GcedTagAnsweredWithGcFlag) {
  World w;
  const auto codec = make_rs_codec(1, 1);
  const Value v0 = enum_value(0, 16);
  const NodeId server = w.add_process(
      std::make_unique<Server>(codec->encode(v0)[0], std::size_t{0}));
  const NodeId client =
      w.add_process(std::make_unique<memu::testing::Probe>());
  // add_process stores a slab copy of its argument, so grab the live
  // in-world probe (never detached here: this World is never forked).
  auto* probe = &dynamic_cast<memu::testing::Probe&>(w.process(client));

  bool got_gc = false;
  probe->set_callback([&](NodeId, const MessagePayload& m) {
    if (const auto* rf = dynamic_cast<const ReadFinResp*>(&m))
      got_gc = rf->gced;
  });

  // delta = 0: finalizing (1,1) garbage-collects everything below it.
  w.enqueue({client, server},
            make_msg<PreWriteReq>(1, Tag{1, 1}, codec->encode(v0)[0]));
  w.deliver({client, server});
  w.enqueue({client, server}, make_msg<FinalizeReq>(2, Tag{1, 1}));
  w.deliver({client, server});

  const auto& srv = dynamic_cast<const Server&>(w.process(server));
  EXPECT_EQ(srv.gc_watermark(), (Tag{1, 1}));
  EXPECT_EQ(srv.stored_versions(), 1u);

  // Asking for the initial tag now reports "garbage-collected".
  w.enqueue({client, server}, make_msg<ReadFinReq>(3, Tag::initial()));
  w.deliver({client, server});
  while (w.channel_depth({server, client}) > 0) w.deliver({server, client});
  EXPECT_TRUE(got_gc);
}

// Schedule sweep: CAS stays safe under adversarial-ish random schedules.
class CasScheduleSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CasScheduleSweep, ReadReturnsAValidValue) {
  Options opt;
  opt.n_writers = 2;
  System sys = make_system(opt);
  Scheduler sched(Scheduler::Policy::kRandom, GetParam());

  const Value v0 = enum_value(0, opt.value_size);
  const Value v1 = unique_value(1, 1, opt.value_size);
  const Value v2 = unique_value(2, 1, opt.value_size);
  sys.world.invoke(sys.writers[0], write_of(v1));
  sys.world.invoke(sys.writers[1], write_of(v2));
  for (int i = 0; i < 5; ++i) sched.step(sys.world);
  sys.world.invoke(sys.readers[0], read_op());
  ASSERT_TRUE(sched.run_until_responses(sys.world, 3, 60000));

  for (const auto& e : sys.world.oplog().events()) {
    if (e.kind == OpEvent::Kind::kResponse && e.type == OpType::kRead) {
      EXPECT_TRUE(e.value == v0 || e.value == v1 || e.value == v2);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CasScheduleSweep,
                         ::testing::Range<std::uint64_t>(0, 20));

}  // namespace
}  // namespace memu::cas

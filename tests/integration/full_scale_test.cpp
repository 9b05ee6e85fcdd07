// Full-scale runs at the paper's Figure 1 parameters: N = 21 servers,
// f = 10 — the regime where coded elements degenerate (k = N - 2f = 1) and
// replication is optimal within Theorem 6.5's class. Exercises the whole
// stack at realistic size rather than the N = 5 used in unit tests.
#include <gtest/gtest.h>

#include "algo/abd/system.h"
#include "algo/cas/system.h"
#include "algo/ldr/ldr.h"
#include "algo/strip/strip.h"
#include "consistency/checker.h"
#include "engine/scheduler.h"
#include "workload/driver.h"

namespace memu {
namespace {

constexpr std::size_t kN = 21, kF = 10, kValueSize = 120;
const double kB = 8.0 * kValueSize;

TEST(FullScale, AbdAtFigure1Parameters) {
  abd::Options opt;
  opt.n_servers = kN;
  opt.f = kF;
  opt.n_writers = 2;
  opt.n_readers = 2;
  opt.value_size = kValueSize;
  abd::System sys = abd::make_system(opt);

  // Crash the full failure budget up front.
  for (std::size_t i = 0; i < kF; ++i)
    sys.world.crash(sys.servers[2 * i]);

  workload::Options wopt;
  wopt.writes_per_writer = 3;
  wopt.reads_per_reader = 3;
  wopt.value_size = kValueSize;
  const auto res = workload::run(sys.world, sys.writers, sys.readers, wopt);
  ASSERT_TRUE(res.completed);
  EXPECT_TRUE(check_atomic(res.history, enum_value(0, kValueSize)).ok);
  // 11 live servers, one value each.
  EXPECT_DOUBLE_EQ(res.storage.final_total.value_bits, 11 * kB);
}

TEST(FullScale, CasAtFigure1ParametersDegeneratesToK1) {
  cas::Options opt;
  opt.n_servers = kN;
  opt.f = kF;
  opt.k = 0;  // auto: N - 2f = 1 — coded elements are full copies
  opt.n_writers = 2;
  opt.n_readers = 1;
  opt.value_size = kValueSize;
  opt.delta = 1;
  cas::System sys = cas::make_system(opt);
  EXPECT_EQ(sys.codec->k(), 1u);
  EXPECT_EQ(sys.quorum, cas::cas_quorum(kN, 1));

  workload::Options wopt;
  wopt.writes_per_writer = 2;
  wopt.reads_per_reader = 2;
  wopt.value_size = kValueSize;
  const auto res = workload::run(sys.world, sys.writers, sys.readers, wopt);
  ASSERT_TRUE(res.completed);
  EXPECT_TRUE(check_atomic(res.history, enum_value(0, kValueSize)).ok);
}

TEST(FullScale, StripAtFavorableParameters) {
  // N = 21, f = 5: k = 16, the erasure-friendly regime of the second
  // Figure 1 measured configuration.
  strip::Options opt;
  opt.n_servers = 21;
  opt.f = 5;
  opt.n_writers = 2;
  opt.n_readers = 1;
  opt.value_size = kValueSize;
  opt.delta = 0;
  strip::System sys = strip::make_system(opt);

  workload::Options wopt;
  wopt.writes_per_writer = 2;
  wopt.reads_per_reader = 2;
  wopt.value_size = kValueSize;
  const auto res = workload::run(sys.world, sys.writers, sys.readers, wopt);
  ASSERT_TRUE(res.completed);
  EXPECT_TRUE(check_atomic(res.history, enum_value(0, kValueSize)).ok);

  Scheduler sched;
  sched.drain(sys.world, 1'000'000);
  // Steady state: one committed version, symbols of ceil(120/16)=8 bytes.
  EXPECT_DOUBLE_EQ(sys.world.total_server_storage().value_bits,
                   21.0 * 8 * 8);
}

TEST(FullScale, LdrAtFigure1Parameters) {
  ldr::Options opt;
  opt.n_servers = kN;
  opt.f = kF;
  opt.value_size = kValueSize;
  ldr::System sys = ldr::make_system(opt);

  workload::Options wopt;
  wopt.writes_per_writer = 3;
  wopt.reads_per_reader = 3;
  wopt.value_size = kValueSize;
  const auto res = workload::run(sys.world, sys.writers, sys.readers, wopt);
  ASSERT_TRUE(res.completed);
  EXPECT_TRUE(
      check_regular_swsr(res.history, enum_value(0, kValueSize)).ok);

  Scheduler sched;
  sched.drain(sys.world, 1'000'000);
  // Exactly f + 1 = 11 value copies: Figure 1's idealized ABD line.
  EXPECT_DOUBLE_EQ(sys.world.total_server_storage().value_bits, 11 * kB);
}

TEST(FullScale, LargeValuesDominateMetadata) {
  // B = 64 KiB: the o(log|V|) gap in relative terms.
  abd::Options opt;
  opt.value_size = 65536;
  abd::System sys = abd::make_system(opt);
  workload::Options wopt;
  wopt.writes_per_writer = 1;
  wopt.reads_per_reader = 0;
  wopt.value_size = opt.value_size;
  const auto res = workload::run(sys.world, sys.writers, sys.readers, wopt);
  ASSERT_TRUE(res.completed);
  const auto& s = res.storage.peak_total;
  EXPECT_LT(s.metadata_bits / s.value_bits, 0.001);
}

}  // namespace
}  // namespace memu

// Injector unit tests: the f budget over concurrent crashes, scripted
// best-effort application, and random-mode determinism.
#include <gtest/gtest.h>

#include "engine/scheduler.h"
#include "fuzz/campaign.h"
#include "fuzz/injector.h"
#include "workload/driver.h"

namespace memu::fuzz {
namespace {

SystemSpec abd_spec() {
  SystemSpec spec;
  spec.algo = "abd";
  spec.n_servers = 5;
  spec.f = 2;
  spec.n_writers = 2;
  spec.n_readers = 2;
  spec.value_size = 16;
  return spec;
}

// One write per writer and one read per reader under a reordering
// scheduler, capped at 5,000 deliveries.
workload::Options one_op_each(const SystemSpec& spec, std::uint64_t seed) {
  workload::Options opt;
  opt.writes_per_writer = 1;
  opt.reads_per_reader = 1;
  opt.value_size = spec.value_size;
  opt.seed = seed;
  opt.policy = Scheduler::Policy::kRandomReorder;
  opt.max_steps = 5'000;
  return opt;
}

InjectedEvent crash_at(std::uint64_t step, std::uint32_t server) {
  InjectedEvent e;
  e.at_step = step;
  e.kind = InjectedEvent::Kind::kCrash;
  e.server = server;
  return e;
}

InjectedEvent recover_at(std::uint64_t step, std::uint32_t server) {
  InjectedEvent e;
  e.at_step = step;
  e.kind = InjectedEvent::Kind::kRecover;
  e.server = server;
  return e;
}

TEST(Injector, ScriptedCrashesRespectFBudget) {
  FuzzSystem sys = make_fuzz_system(abd_spec());
  // Three crashes at the same point against f = 2: the third must be
  // refused, not applied.
  Injector inj(sys.servers, 2,
               {crash_at(0, 0), crash_at(0, 1), crash_at(0, 2)});
  inj.before_step(sys.world, 0);
  EXPECT_EQ(inj.crashed_now(), 2u);
  EXPECT_EQ(inj.events().size(), 2u);
  EXPECT_EQ(inj.skipped(), 1u);
  EXPECT_TRUE(sys.world.is_crashed(sys.servers[0]));
  EXPECT_TRUE(sys.world.is_crashed(sys.servers[1]));
  EXPECT_FALSE(sys.world.is_crashed(sys.servers[2]));
}

TEST(Injector, RecoverFreesTheBudget) {
  FuzzSystem sys = make_fuzz_system(abd_spec());
  Injector inj(sys.servers, 2,
               {crash_at(0, 0), crash_at(1, 1), recover_at(2, 0),
                crash_at(3, 2)});
  for (std::uint64_t step = 0; step < 4; ++step)
    inj.before_step(sys.world, step);
  EXPECT_EQ(inj.skipped(), 0u);
  EXPECT_EQ(inj.events().size(), 4u);
  EXPECT_EQ(inj.crashed_now(), 2u);
  EXPECT_FALSE(sys.world.is_crashed(sys.servers[0]));
  EXPECT_TRUE(sys.world.is_crashed(sys.servers[1]));
  EXPECT_TRUE(sys.world.is_crashed(sys.servers[2]));
}

TEST(Injector, RandomModeNeverExceedsFBudget) {
  const SystemSpec spec = abd_spec();
  FuzzSystem sys = make_fuzz_system(spec);

  // Aggressive crash pressure, light recovery: without the budget check
  // this would crash far more than f concurrently.
  FaultMix mix;
  mix.crash = 0.30;
  mix.recover = 0.05;
  Injector inj(sys.servers, spec.f, mix, /*seed=*/42);

  workload::Options opt = one_op_each(spec, /*seed=*/7);
  std::size_t max_seen = 0;
  opt.before_step = [&](World& w, std::uint64_t s) {
    inj.before_step(w, s);
    max_seen = std::max(max_seen, inj.crashed_now());
    ASSERT_LE(inj.crashed_now(), spec.f);
  };
  workload::run(sys.world, sys.writers, sys.readers, opt);

  // The budget was actually exercised, not just never reached.
  EXPECT_EQ(max_seen, spec.f);
  EXPECT_GT(inj.events().size(), 0u);
}

TEST(Injector, RandomModeIsDeterministicInItsSeed) {
  const SystemSpec spec = abd_spec();
  const auto run_one = [&](std::uint64_t seed) {
    FuzzSystem sys = make_fuzz_system(spec);
    Injector inj(sys.servers, spec.f, FaultMix::standard(), seed);
    workload::Options opt = one_op_each(spec, /*seed=*/3);
    opt.before_step = [&inj](World& w, std::uint64_t s) {
      inj.before_step(w, s);
    };
    workload::run(sys.world, sys.writers, sys.readers, opt);
    return inj.events();
  };

  const auto a = run_one(99);
  const auto b = run_one(99);
  const auto c = run_one(100);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);  // different seed, different faults (overwhelmingly)
}

TEST(Injector, DescribeNamesEveryKind) {
  EXPECT_EQ(describe(crash_at(5, 3)), "crash server 3 @5");
  InjectedEvent drop;
  drop.at_step = 9;
  drop.kind = InjectedEvent::Kind::kDrop;
  drop.src = 1;
  drop.dst = 4;
  drop.index = 2;
  EXPECT_EQ(describe(drop), "drop 1->4[2] @9");
  InjectedEvent part;
  part.at_step = 11;
  part.kind = InjectedEvent::Kind::kPartition;
  part.group_bits = 0b101;
  EXPECT_EQ(describe(part), "partition {0,2} @11");
}

TEST(Injector, EventKindNamesRoundTrip) {
  for (const auto kind :
       {InjectedEvent::Kind::kCrash, InjectedEvent::Kind::kRecover,
        InjectedEvent::Kind::kDrop, InjectedEvent::Kind::kDuplicate,
        InjectedEvent::Kind::kDelay, InjectedEvent::Kind::kPartition,
        InjectedEvent::Kind::kHeal}) {
    EXPECT_EQ(event_kind_from_name(event_kind_name(kind)), kind);
  }
}

}  // namespace
}  // namespace memu::fuzz

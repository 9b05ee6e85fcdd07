// ExecutionDriver: the shared run loops, step accounting, storage
// metering, and the scripted ReplayDriver.
#include "engine/driver.h"

#include <gtest/gtest.h>

#include "algo/abd/system.h"
#include "engine/frontier.h"
#include "engine/replay.h"
#include "engine/scheduler.h"

namespace memu {
namespace {

abd::System write_read_system() {
  abd::Options opt;
  opt.n_servers = 3;
  opt.f = 1;
  opt.single_writer = true;
  opt.value_size = 12;
  abd::System sys = abd::make_system(opt);
  sys.world.invoke(sys.writers[0],
                   {OpType::kWrite, unique_value(1, 1, opt.value_size)});
  sys.world.invoke(sys.readers[0], {OpType::kRead, {}});
  return sys;
}

TEST(ExecutionDriver, RunUntilResponsesThenDrain) {
  abd::System sys = write_read_system();
  Scheduler sched;
  engine::ExecutionDriver& driver = sched;
  EXPECT_TRUE(driver.run_until_responses(sys.world, 2, 100000));
  EXPECT_EQ(sys.world.oplog().responses_since(0), 2u);
  EXPECT_TRUE(driver.drain(sys.world, 100000));
  EXPECT_FALSE(sys.world.has_deliverable());
  EXPECT_GT(driver.steps_taken(), 0u);
}

TEST(ExecutionDriver, MeteringSamplesEveryStep) {
  abd::System sys = write_read_system();
  Scheduler sched;
  sched.enable_metering();
  sched.observe(sys.world);
  ASSERT_TRUE(sched.drain(sys.world, 100000));
  const StorageReport& rep = sched.storage_report();
  // One pre-run observation plus one per delivered message.
  EXPECT_EQ(rep.observations, sched.steps_taken() + 1);
  // Three live replicas each hold the 12-byte value at quiescence.
  EXPECT_GE(rep.peak_total.value_bits, 3 * 8.0 * 12);
}

TEST(ExecutionDriver, MeteringOffByDefault) {
  abd::System sys = write_read_system();
  Scheduler sched;
  ASSERT_TRUE(sched.drain(sys.world, 100000));
  EXPECT_FALSE(sched.metering_enabled());
  EXPECT_EQ(sched.storage_report().observations, 0u);
}

TEST(ReplayDriver, ReplaysAnExplorerCounterexample) {
  // Mine a violation path (any state with >= 6 responses... use a simple
  // "both ops responded" predicate so the path ends at the first state
  // where the system completed both operations), then replay it through
  // the driver interface on a fresh world.
  abd::System sys = write_read_system();
  const auto res = engine::frontier_search(
      sys.world, ExploreOptions{},
      [](const World& w) -> std::optional<std::string> {
        if (w.oplog().responses_since(0) >= 2) return "both responded";
        return std::nullopt;
      },
      {});
  ASSERT_FALSE(res.ok);
  ASSERT_FALSE(res.violation_path.empty());

  abd::System fresh = write_read_system();
  engine::ReplayDriver driver(res.violation_path);
  EXPECT_FALSE(driver.done());
  std::size_t steps = 0;
  while (driver.step(fresh.world)) ++steps;
  EXPECT_TRUE(driver.done());
  EXPECT_EQ(steps, res.violation_path.size());
  EXPECT_EQ(driver.position(), res.violation_path.size());
  EXPECT_EQ(driver.steps_taken(), res.violation_path.size());
  EXPECT_EQ(fresh.world.oplog().responses_since(0), 2u);
}

TEST(ReplayDriver, FreeFunctionReplayApplies) {
  abd::System sys = write_read_system();
  const auto res = engine::frontier_search(
      sys.world, ExploreOptions{},
      [](const World& w) -> std::optional<std::string> {
        if (w.oplog().responses_since(0) >= 1) return "first response";
        return std::nullopt;
      },
      {});
  ASSERT_FALSE(res.ok);
  abd::System fresh = write_read_system();
  EXPECT_EQ(engine::replay(fresh.world, res.violation_path),
            res.violation_path.size());
  EXPECT_EQ(fresh.world.oplog().responses_since(0), 1u);
}

}  // namespace
}  // namespace memu

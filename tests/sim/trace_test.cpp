#include "sim/trace.h"

#include <gtest/gtest.h>

#include <sstream>

#include "algo/abd/system.h"
#include "engine/scheduler.h"

namespace memu {
namespace {

TEST(Trace, DisabledByDefault) {
  abd::System sys = abd::make_system(abd::Options{});
  Scheduler sched;
  sys.world.invoke(sys.writers[0],
                   {OpType::kWrite, unique_value(1, 1, 64)});
  sched.drain(sys.world, 10000);
  EXPECT_TRUE(sys.world.trace().empty());
}

TEST(Trace, RecordsEveryDelivery) {
  abd::System sys = abd::make_system(abd::Options{});
  sys.world.enable_trace();
  Scheduler sched;
  sys.world.invoke(sys.writers[0],
                   {OpType::kWrite, unique_value(1, 1, 64)});
  sched.drain(sys.world, 10000);
  EXPECT_EQ(sys.world.trace().size(), sched.steps_taken());
}

TEST(Trace, CountsByType) {
  abd::Options opt;
  abd::System sys = abd::make_system(opt);
  sys.world.enable_trace();
  Scheduler sched;
  sys.world.invoke(sys.writers[0],
                   {OpType::kWrite, unique_value(1, 1, opt.value_size)});
  sched.drain(sys.world, 10000);

  const auto counts = sys.world.trace().count_by_type();
  // MWMR write: query round (N reqs + N resps) + store round (N + N).
  EXPECT_EQ(counts.at("abd.query_req"), opt.n_servers);
  EXPECT_EQ(counts.at("abd.query_resp"), opt.n_servers);
  EXPECT_EQ(counts.at("abd.store_req"), opt.n_servers);
  EXPECT_EQ(counts.at("abd.store_ack"), opt.n_servers);
}

TEST(Trace, BitsMovedSeparatesValueAndMetadata) {
  abd::Options opt;
  opt.value_size = 100;
  abd::System sys = abd::make_system(opt);
  sys.world.enable_trace();
  Scheduler sched;
  sys.world.invoke(sys.writers[0],
                   {OpType::kWrite, unique_value(1, 1, opt.value_size)});
  sched.drain(sys.world, 10000);

  const StateBits moved = sys.world.trace().bits_moved();
  // N store requests each carry the 800-bit value; queries/acks carry none.
  EXPECT_DOUBLE_EQ(moved.value_bits,
                   static_cast<double>(opt.n_servers) * 800.0);
  EXPECT_GT(moved.metadata_bits, 0);
}

TEST(Trace, MarksDroppedDeliveries) {
  abd::Options opt;
  abd::System sys = abd::make_system(opt);
  sys.world.enable_trace();
  sys.world.crash(sys.servers[0]);
  sys.world.invoke(sys.writers[0],
                   {OpType::kWrite, unique_value(1, 1, opt.value_size)});
  // Deliver the crashed server's query first: it is held (not deliverable),
  // so drain everything else — then nothing for server 0 is recorded.
  Scheduler sched;
  sched.drain(sys.world, 10000);
  EXPECT_EQ(sys.world.trace().dropped_count(), 0u);
  // Messages to the crashed node are never delivered at all in this model;
  // they remain in flight.
  EXPECT_GT(sys.world.in_flight(), 0u);
}

TEST(Trace, SurvivesCloning) {
  abd::System sys = abd::make_system(abd::Options{});
  sys.world.enable_trace();
  Scheduler sched;
  sys.world.invoke(sys.writers[0],
                   {OpType::kWrite, unique_value(1, 1, 64)});
  for (int i = 0; i < 3; ++i) sched.step(sys.world);

  World copy = sys.world;
  EXPECT_EQ(copy.trace().size(), 3u);
  copy.deliver(copy.deliverable_channels().front());
  EXPECT_EQ(copy.trace().size(), 4u);
  EXPECT_EQ(sys.world.trace().size(), 3u);  // parent untouched
}

TEST(Trace, PrintTruncates) {
  abd::System sys = abd::make_system(abd::Options{});
  sys.world.enable_trace();
  Scheduler sched;
  sys.world.invoke(sys.writers[0],
                   {OpType::kWrite, unique_value(1, 1, 64)});
  sched.drain(sys.world, 10000);
  std::ostringstream os;
  sys.world.trace().print(os, 2);
  EXPECT_NE(os.str().find("more)"), std::string::npos);
}

}  // namespace
}  // namespace memu

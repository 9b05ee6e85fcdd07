// WorkStealingPool: a throwing visit ends the run with that exception on
// the calling thread, at one worker and at many.
#include "engine/thread_pool.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <stdexcept>
#include <string>
#include <vector>

namespace memu::engine {
namespace {

struct Boom : std::runtime_error {
  using std::runtime_error::runtime_error;
};

TEST(WorkStealingPool, ThrowingVisitSurfacesOnTheCallingThread) {
  for (const std::size_t workers : {1u, 4u}) {
    WorkStealingPool<std::size_t> pool(workers);
    for (std::size_t i = 0; i < 1000; ++i) pool.seed(std::size_t{i});
    try {
      pool.run([](std::size_t, std::size_t&& task) {
        if (task == 500) throw Boom("task 500");
      });
      FAIL() << "expected the visit's exception at " << workers << " workers";
    } catch (const Boom& e) {
      EXPECT_EQ(std::string(e.what()), "task 500");
    }
    if (workers > 1) {
      EXPECT_TRUE(pool.stopped());
    }
  }
}

TEST(WorkStealingPool, ThrowingChildOfASubmittingVisitStopsEveryWorker) {
  // A tree the visits grow through submit(): idle workers wait on the
  // in-flight count, which the throwing task never retires, so the pool
  // must stop them rather than let them wait forever.
  WorkStealingPool<std::size_t> pool(4);
  pool.seed(std::size_t{1});
  EXPECT_THROW(pool.run([&](std::size_t worker, std::size_t&& depth) {
                 if (depth == 12) throw Boom("deep");
                 std::vector<std::size_t> children{depth + 1, depth + 1};
                 pool.submit(worker, children);
               }),
               Boom);
}

TEST(ParallelFor, ThrowingBodySurfacesOnTheCallingThread) {
  for (const std::size_t threads : {1u, 4u}) {
    EXPECT_THROW(parallel_for(threads, 64,
                              [](std::size_t i) {
                                if (i == 7) throw Boom("seven");
                              }),
                 Boom)
        << threads;
  }
}

}  // namespace
}  // namespace memu::engine

// parallel_for: every index runs exactly once at any thread count, and a
// throwing body ends the loop with that exception on the calling thread.
#include "engine/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <stdexcept>
#include <vector>

namespace memu::engine {
namespace {

struct Boom : std::runtime_error {
  using std::runtime_error::runtime_error;
};

TEST(ParallelFor, ThrowingBodySurfacesOnTheCallingThread) {
  for (const std::size_t threads : {1u, 2u, 4u}) {
    // Without a throw, every index in [0, n) runs exactly once.
    for (const std::size_t n : {0u, 1u, 3u, 1000u}) {
      std::vector<std::atomic<int>> runs(n);
      parallel_for(threads, n, [&](std::size_t i) { runs[i].fetch_add(1); });
      for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(runs[i].load(), 1) << threads << " threads, n=" << n
                                     << ", index " << i;
    }
    // A throw stops the workers from claiming further indices: none runs
    // twice, and the exception reaches the caller.
    std::vector<std::atomic<int>> runs(64);
    EXPECT_THROW(parallel_for(threads, runs.size(),
                              [&](std::size_t i) {
                                runs[i].fetch_add(1);
                                if (i == 7) throw Boom("seven");
                              }),
                 Boom)
        << threads;
    for (std::size_t i = 0; i < runs.size(); ++i)
      EXPECT_LE(runs[i].load(), 1) << threads << " threads, index " << i;
  }
}

}  // namespace
}  // namespace memu::engine

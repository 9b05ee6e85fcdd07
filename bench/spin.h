// Measured parallelism for bench_fuzz's scaling record.
//
// std::thread::hardware_concurrency() counts the CPUs the OS lists, not the
// CPU time a shared runner actually hands out: a container can list 4 and
// deliver ~2, and the share it delivers drifts from one second to the next.
// bench_fuzz therefore spins kScalingGateThreads busy threads right before
// and right after its 4-thread scaling leg and records the smaller of the
// two CPU-seconds-per-wall-second readings;
// tools/check_bench_regression.py enforces the speedup@4 floor only when
// that figure shows the threads really ran side by side.
#pragma once

#include <time.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

namespace memu::bench {

// SCALING_GATE_THREADS in tools/check_bench_regression.py.
inline constexpr unsigned kScalingGateThreads = 4;
// Long enough to see a sustained share, not a burst of idle CPUs.
inline constexpr double kSpinSeconds = 2.0;

// Spins kScalingGateThreads threads for kSpinSeconds; returns the
// CPU-seconds they accrued per wall-second (~4 when each got a CPU).
inline double spin_parallelism() {
  const auto thread_cpu_seconds = [] {
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
  };
  std::atomic<bool> stop{false};
  std::vector<double> cpu(kScalingGateThreads, 0.0);
  std::vector<std::thread> spinners;
  const auto t0 = std::chrono::steady_clock::now();
  for (unsigned t = 0; t < kScalingGateThreads; ++t) {
    spinners.emplace_back([&, t] {
      const double c0 = thread_cpu_seconds();
      while (!stop.load(std::memory_order_relaxed)) {
      }
      cpu[t] = thread_cpu_seconds() - c0;
    });
  }
  std::this_thread::sleep_for(std::chrono::duration<double>(kSpinSeconds));
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& s : spinners) s.join();
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  double total = 0;
  for (const double c : cpu) total += c;
  return wall > 0 ? total / wall : 0;
}

}  // namespace memu::bench

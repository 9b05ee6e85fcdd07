#include "machine.h"

#include <pthread.h>
#include <sched.h>
#include <time.h>
#include <unistd.h>

#include <chrono>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

namespace perfbench {
namespace {

double thread_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

// Spins `threads` threads for `wall` seconds each; returns the CPU-seconds
// they accrued per wall-second of the whole spin.
double calibrate(int threads, double wall) {
  std::vector<double> cpu(static_cast<std::size_t>(threads), 0.0);
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&cpu, t, wall, t0] {
      const double c0 = thread_cpu_seconds();
      volatile std::uint64_t sink = 0;
      while (std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
                 .count() < wall)
        for (int i = 0; i < 1000; ++i) sink = sink + static_cast<std::uint64_t>(i);
      cpu[static_cast<std::size_t>(t)] = thread_cpu_seconds() - c0;
    });
  }
  for (std::thread& th : pool) th.join();
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  double total = 0;
  for (const double c : cpu) total += c;
  return elapsed > 0 ? total / elapsed : 0;
}

std::string read_cpu_max() {
  std::ifstream in("/sys/fs/cgroup/cpu.max");
  std::string line;
  if (!in || !std::getline(in, line)) return "unavailable";
  return line;
}

}  // namespace

MachineRecord measure_machine(const std::string& build_type) {
  MachineRecord m;
  m.nproc = sysconf(_SC_NPROCESSORS_ONLN);
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) m.affinity_cpus = CPU_COUNT(&set);
  m.cgroup_cpu_max = read_cpu_max();
  m.cpu_per_wall_1t = calibrate(1, 0.15);
  m.cpu_per_wall_2t = calibrate(2, 0.15);
  m.build_type = build_type;
  return m;
}

std::string MachineRecord::to_json() const {
  std::ostringstream o;
  o << "{\"nproc\": " << nproc << ", \"affinity_cpus\": " << affinity_cpus
    << ", \"cgroup_cpu_max\": \"" << cgroup_cpu_max
    << "\", \"cpu_per_wall_1t\": " << cpu_per_wall_1t
    << ", \"cpu_per_wall_2t\": " << cpu_per_wall_2t << ", \"build_type\": \""
    << build_type << "\"}";
  return o.str();
}

}  // namespace perfbench

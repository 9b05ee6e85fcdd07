// Machine record written with every result: what the kernel says about
// the CPUs this process may use, and what a calibration spin measures.
// hardware_concurrency() alone overstates the cores a container gets; the
// spin measures CPU-seconds accrued per wall-second at 1 and 2 threads.
#pragma once

#include <string>

namespace perfbench {

struct MachineRecord {
  long nproc = 0;                  // online CPUs (sysconf)
  int affinity_cpus = 0;           // CPUs in this process's affinity mask
  std::string cgroup_cpu_max;      // cgroup v2 cpu.max, or "unavailable"
  double cpu_per_wall_1t = 0;      // calibration spin, one thread
  double cpu_per_wall_2t = 0;      // calibration spin, two threads
  std::string build_type;

  // Two threads are genuinely parallel only if they accrue close to two
  // CPU-seconds per wall-second.
  bool two_threads_parallel() const { return cpu_per_wall_2t >= 1.8; }
  std::string to_json() const;
};

MachineRecord measure_machine(const std::string& build_type);

}  // namespace perfbench

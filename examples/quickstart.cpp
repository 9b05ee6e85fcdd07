// Quickstart: emulate an atomic shared memory register over 5 simulated
// servers with the ABD algorithm, perform writes and reads, check the
// history for atomicity, and report the storage cost the paper reasons
// about.
//
//   $ ./quickstart
#include <iostream>

#include "algo/abd/system.h"
#include "consistency/checker.h"
#include "engine/scheduler.h"
#include "workload/driver.h"

int main() {
  using namespace memu;

  // 1. Build a system: N = 5 servers tolerating f = 2 crash failures,
  //    two writers and two readers, values of 64 bytes (B = 512 bits).
  abd::Options opt;
  opt.n_servers = 5;
  opt.f = 2;
  opt.n_writers = 2;
  opt.n_readers = 2;
  opt.value_size = 64;
  abd::System sys = abd::make_system(opt);

  std::cout << "ABD system: N=" << opt.n_servers << " f=" << opt.f
            << " quorum=" << sys.quorum << " B=" << opt.value_size * 8
            << " bits\n";

  // 2. Crash f servers up front — liveness must still hold.
  sys.world.crash(sys.servers[1]);
  sys.world.crash(sys.servers[4]);
  std::cout << "crashed servers 1 and 4 (f = 2 tolerated)\n\n";

  // 3. Drive a concurrent workload: every client keeps one operation in
  //    flight under a seeded random schedule.
  workload::Options wopt;
  wopt.writes_per_writer = 4;
  wopt.reads_per_reader = 4;
  wopt.value_size = opt.value_size;
  wopt.seed = 42;
  const workload::RunResult res =
      workload::run(sys.world, sys.writers, sys.readers, wopt);

  std::cout << "workload: " << res.history.writes().size() << " writes, "
            << res.history.completed_reads().size() << " reads, "
            << res.steps << " message deliveries\n";

  // 4. Check the observed history against atomicity (linearizability).
  const auto verdict =
      check_atomic(res.history, enum_value(0, opt.value_size));
  std::cout << "atomicity check: " << (verdict.ok ? "PASS" : "FAIL")
            << (verdict.ok ? "" : " — " + verdict.violation) << "\n\n";

  // 5. Report storage costs, the quantity the paper lower-bounds.
  const double B = 8.0 * static_cast<double>(opt.value_size);
  std::cout << "peak total storage: " << res.storage.peak_total.total()
            << " bits (" << res.storage.normalized_peak_total(B)
            << " x log2|V| in value bits)\n";
  std::cout << "peak per-server:    " << res.storage.peak_max_server.total()
            << " bits\n";
  std::cout << "metadata overhead:  " << res.storage.peak_total.metadata_bits
            << " bits (the paper's o(log|V|) term)\n";
  return verdict.ok ? 0 : 1;
}

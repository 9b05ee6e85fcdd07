// Erasure-coded shared memory: CAS vs CASGC under concurrent writes.
//
// Demonstrates the storage behavior at the heart of the paper's Figure 1:
// each server stores B/k-bit coded elements instead of B-bit copies, but
// must hold one element per unfinished version — so storage grows with the
// number of active writes, and garbage collection (CASGC) caps it only for
// *completed* writes.
//
//   $ ./coded_storage
#include <iostream>

#include "algo/registry.h"
#include "common/table.h"
#include "engine/scheduler.h"
#include "sweep/measure.h"
#include "workload/driver.h"

namespace {

// Peak normalized value storage with nu parked (forever-active) writes.
double parked_storage(std::size_t nu, std::optional<std::size_t> delta,
                      std::size_t value_size) {
  return memu::sweep::parked_cas(/*n=*/6, /*f=*/1, /*k=*/4, nu, delta,
                                 value_size);  // k <= N - 2f
}

// Final normalized value storage after `writes` sequential completed writes.
double sequential_storage(std::size_t writes,
                          std::optional<std::size_t> delta,
                          std::size_t value_size) {
  memu::algo::Deployment sys =
      memu::algo::family(delta.has_value() ? "casgc" : "cas")
          .build({.n_servers = 6, .f = 1, .k = 4, .value_size = value_size,
                  .delta = delta});

  memu::workload::Options wopt;
  wopt.writes_per_writer = writes;
  wopt.reads_per_reader = 0;
  wopt.value_size = value_size;
  auto res = memu::workload::run(sys.world, sys.writers, sys.readers, wopt);
  memu::Scheduler sched;
  sched.drain(sys.world, 1'000'000);
  return sys.world.total_server_storage().value_bits /
         (8.0 * static_cast<double>(value_size));
}

}  // namespace

int main() {
  using namespace memu;
  const std::size_t value_size = 64;

  std::cout << "CAS on N=6 servers, f=1, RS(6,4): shards are B/4 bits.\n\n";

  std::cout << "Active (parked) writes -> peak total storage / B:\n";
  Table active({"nu_active", "cas", "casgc(d=1)"});
  for (std::size_t nu = 1; nu <= 4; ++nu) {
    active.row()
        .cell(nu)
        .cell(parked_storage(nu, std::nullopt, value_size))
        .cell(parked_storage(nu, std::size_t{1}, value_size));
  }
  active.print();
  std::cout << "  -> grows ~ (nu+1) * N/k for both: active versions cannot "
               "be garbage-collected.\n\n";

  std::cout << "Sequential completed writes -> final total storage / B:\n";
  Table seq({"writes", "cas", "casgc(d=1)"});
  for (const std::size_t w : {1u, 2u, 4u, 8u}) {
    seq.row()
        .cell(w)
        .cell(sequential_storage(w, std::nullopt, value_size))
        .cell(sequential_storage(w, std::size_t{1}, value_size));
  }
  seq.print();
  std::cout << "  -> plain CAS accretes every version ever written; CASGC "
               "keeps delta+1 = 2 versions (3 N/k total during overlap).\n";
  return 0;
}

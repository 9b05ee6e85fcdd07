#include "sweep/measure.h"

#include "algo/registry.h"
#include "engine/scheduler.h"
#include "workload/driver.h"
#include "workload/park.h"

namespace memu::sweep {

namespace {

constexpr std::uint64_t kDrainCap = 1'000'000;

double bits(std::size_t value_size) { return 8.0 * static_cast<double>(value_size); }

// Builds `algo` with nu writers and one reader, parks nu writes and returns
// the peak value storage / B.
double parked(std::string_view algo, const algo::Spec& spec) {
  const algo::Family& fam = algo::family(algo);
  algo::Deployment sys = fam.build(spec);
  return workload::park_active_writes(sys, fam, spec.n_writers, spec.value_size)
      .normalized_peak_total(bits(spec.value_size));
}

// Builds `algo` with one writer and one reader, runs `writes` sequential
// writes and drains the world to quiescence; returns the value bits then
// resident on servers / B.
double steady(std::string_view algo, const algo::Spec& spec,
              std::size_t writes) {
  algo::Deployment sys = algo::family(algo).build(spec);
  workload::Options wopt;
  wopt.writes_per_writer = writes;
  wopt.reads_per_reader = 0;
  wopt.value_size = spec.value_size;
  workload::run(sys.world, sys.writers, sys.readers, wopt);
  Scheduler sched;
  sched.drain(sys.world, kDrainCap);
  return sys.world.total_server_storage().value_bits / bits(spec.value_size);
}

}  // namespace

double parked_abd(std::size_t n, std::size_t f, std::size_t nu,
                  std::size_t value_size) {
  return parked("abd", {.n_servers = n,
                        .f = f,
                        .n_writers = nu,
                        .value_size = value_size});
}

double parked_cas(std::size_t n, std::size_t f, std::size_t k, std::size_t nu,
                  std::optional<std::size_t> delta, std::size_t value_size) {
  return parked(delta.has_value() ? "casgc" : "cas", {.n_servers = n,
                                                      .f = f,
                                                      .k = k,
                                                      .n_writers = nu,
                                                      .value_size = value_size,
                                                      .delta = delta});
}

double steady_ldr(std::size_t n, std::size_t f, std::size_t writes,
                  std::size_t value_size) {
  return steady("ldr", {.n_servers = n, .f = f, .value_size = value_size},
                writes);
}

}  // namespace memu::sweep

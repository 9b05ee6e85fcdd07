// Protocol-phase ablation: operation latency (in message deliveries) and
// message counts for ABD vs SWMR-ABD vs CAS vs CASGC under increasing write
// concurrency.
//
// Why it matters to the paper: Section 6 restricts write protocols to a
// single value-dependent phase; this bench shows what each phase costs and
// that the algorithms studied indeed spend exactly one phase shipping value
// bits (ABD store / CAS pre-write), with the remaining phases tag-only.
#include <algorithm>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <numeric>

#include "algo/abd/system.h"
#include "algo/cas/system.h"
#include "algo/ldr/ldr.h"
#include "algo/strip/strip.h"
#include "common/cli.h"
#include "common/table.h"
#include "engine/scheduler.h"
#include "workload/driver.h"

namespace {

struct LatencyStats {
  double mean = 0;
  std::uint64_t p99 = 0;
  std::uint64_t steps = 0;
};

LatencyStats stats_of(const memu::workload::RunResult& res) {
  LatencyStats s;
  if (res.op_latency_steps.empty()) return s;
  auto lat = res.op_latency_steps;
  std::sort(lat.begin(), lat.end());
  s.mean = static_cast<double>(
               std::accumulate(lat.begin(), lat.end(), std::uint64_t{0})) /
           static_cast<double>(lat.size());
  s.p99 = lat[std::min(lat.size() - 1, lat.size() * 99 / 100)];
  s.steps = res.steps;
  return s;
}

template <class System>
LatencyStats run_workload(System sys, std::size_t writers_quota,
                          std::size_t value_size) {
  memu::workload::Options opt;
  opt.writes_per_writer = writers_quota;
  opt.reads_per_reader = writers_quota;
  opt.value_size = value_size;
  opt.seed = 7;
  const auto res =
      memu::workload::run(sys.world, sys.writers, sys.readers, opt);
  if (!res.completed) return {};
  return stats_of(res);
}

}  // namespace

int main(int argc, char** argv) try {
  using namespace memu;
  const cli::Args a = cli::parse(argc, argv, {}, {});
  MEMU_CHECK_MSG(a.positional.empty(),
                 "unexpected argument '" << a.positional.front() << "'");
  constexpr std::size_t kValueSize = 64;
  constexpr std::size_t kQuota = 4;

  std::cout << "=== Operation latency (message deliveries per op) vs write "
               "concurrency, N=5 ===\n\n";
  Table t({"writers", "abd_mean", "abd_swmr", "cas_mean", "casgc_mean",
           "abd_p99", "cas_p99"},
          12);
  for (const std::size_t nu : {1u, 2u, 4u}) {
    abd::Options aopt;
    aopt.n_writers = nu;
    aopt.n_readers = 1;
    aopt.value_size = kValueSize;
    const auto abd_stats =
        run_workload(abd::make_system(aopt), kQuota, kValueSize);

    LatencyStats swmr_stats{};
    if (nu == 1) {
      abd::Options sopt = aopt;
      sopt.single_writer = true;
      swmr_stats = run_workload(abd::make_system(sopt), kQuota, kValueSize);
    }

    cas::Options copt;
    copt.n_writers = nu;
    copt.n_readers = 1;
    copt.value_size = kValueSize;  // k = 3 default
    const auto cas_stats =
        run_workload(cas::make_system(copt), kQuota, kValueSize);

    cas::Options gopt = copt;
    gopt.delta = nu;
    const auto casgc_stats =
        run_workload(cas::make_system(gopt), kQuota, kValueSize);

    t.row()
        .cell(nu)
        .cell(abd_stats.mean)
        .cell(nu == 1 ? [&] {
          std::ostringstream os;
          os << std::fixed << std::setprecision(3) << swmr_stats.mean;
          return os.str();
        }() : std::string("-"))
        .cell(cas_stats.mean)
        .cell(casgc_stats.mean)
        .cell(abd_stats.p99)
        .cell(cas_stats.p99);
  }
  t.print();

  // ---- Wire cost per write: the communication side of the storage story.
  // StripStore buys its N/(N-f) steady-state storage with full-value
  // traffic to all N servers; CAS ships only B/k-bit elements.
  std::cout << "\n=== Network cost of ONE write (value bits moved / B), "
               "N=5, measured from traces ===\n\n";
  {
    Table wt({"algorithm", "value_bits/B", "deliveries"}, 14);
    const std::size_t vs = 120;
    const double B = 8.0 * vs;

    auto traced_write = [&](auto&& sys, NodeId writer) {
      sys.world.enable_trace();
      Scheduler sched;
      sys.world.invoke(writer, {OpType::kWrite, unique_value(1, 1, vs)});
      sched.drain(sys.world, 100000);
      return std::pair{sys.world.trace().bits_moved().value_bits / B,
                       sys.world.trace().size()};
    };

    {
      abd::Options o;
      o.value_size = vs;
      auto sys = abd::make_system(o);
      const auto [bits, msgs] = traced_write(sys, sys.writers[0]);
      wt.row().cell("abd (replication)").cell(bits).cell(msgs);
    }
    {
      cas::Options o;
      o.value_size = vs;  // N=5, f=1, k=3
      auto sys = cas::make_system(o);
      const auto [bits, msgs] = traced_write(sys, sys.writers[0]);
      wt.row().cell("cas k=3").cell(bits).cell(msgs);
    }
    {
      strip::Options o;
      o.n_servers = 5;
      o.f = 2;
      o.value_size = vs;
      auto sys = strip::make_system(o);
      const auto [bits, msgs] = traced_write(sys, sys.writers[0]);
      wt.row().cell("strip (full+strip)").cell(bits).cell(msgs);
    }
    {
      ldr::Options o;
      o.n_servers = 5;
      o.f = 2;
      o.value_size = vs;
      auto sys = ldr::make_system(o);
      const auto [bits, msgs] = traced_write(sys, sys.writers[0]);
      wt.row().cell("ldr (f+1 puts)").cell(bits).cell(msgs);
    }
    wt.print();
    std::cout << "-> abd/strip ship N full values; cas ships N/k; ldr ships "
                 "f+1 — wire cost and steady-state storage trade against "
                 "each other across the designs.\n";
  }

  std::cout
      << "\nPhase anatomy (quorum round-trips per op):\n"
      << "  ABD write (MWMR): 2 phases — query (tag-only) + store (value)\n"
      << "  ABD write (SWMR): 1 phase — store (value)\n"
      << "  ABD read:         2 phases — query (value) + write-back (value)\n"
      << "  CAS write:        3 phases — query + pre-write (value) + "
         "finalize\n"
      << "  CAS read:         2 phases — query + read-finalize (value in)\n"
      << "Exactly one phase per write carries value-dependent messages: the "
         "Assumption-3 class of Theorem 6.5.\n";
  return 0;
} catch (const std::exception& e) {
  // It takes no arguments; any argument, or an error raised during the
  // run, is no verdict: one line and exit 2, as memu does.
  std::cerr << "bench_protocol_phases: " << memu::error_message(e) << '\n';
  return 2;
}

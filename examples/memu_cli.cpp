// memu — command-line driver for the memucost library.
//
//   memu bounds <N> <f> [nu_max]
//       Print every storage bound of the paper for these parameters.
//
//   memu run <algo> [--n N] [--f F] [--k K] [--writers W] [--readers R]
//            [--delta D] [--ops-per-client Q] [--value-bytes B] [--seed S]
//            [--reorder] [--crash i[,j,...]]
//       Drive a workload on a simulated deployment; print storage costs,
//       latency, and the consistency verdict. --k, --writers and --delta
//       are refused for a family that does not read them.
//
//   memu verify <b1|41|51> <algo> [--domain M]
//       Execute the corresponding lower-bound proof construction.
//
//   memu verify 65 <algo> [--nu V] [--domain M]
//       Execute the Theorem 6.5 staged-delivery construction (families
//       with nu writers and a single value-dependent writer phase).
//
//   memu explore <algo> [--n N] [--reorder]
//       [--reduce|--sleep-sets|--symmetry] [--max-states N] [--mem 64M]
//       Exhaustively model-check one write racing one read against the
//       property the family promises. --reduce enables both partial-order
//       reductions (sleep sets + server symmetry); the individual flags
//       enable one at a time. --mem applies the hard memory budget: a
//       ceiling on visited-set growth (half of it) and on the frontier (an
//       eighth); a run that passes either fails with a --mem sizing hint.
//
// <algo> is any name of the algorithm registry (src/algo/registry.h); the
// usage text lists them.
#include <cstring>
#include <iostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "adversary/harness.h"
#include "adversary/theorem65.h"
#include "algo/registry.h"
#include "bounds/bounds.h"
#include "common/cli.h"
#include "common/env.h"
#include "common/table.h"
#include "consistency/checker.h"
#include "engine/frontier.h"
#include "workload/driver.h"

namespace {

using namespace memu;
using cli::Args;

int usage() {
  std::cerr << "usage: memu bounds <N> <f> [nu_max]\n"
            << "       memu run <algo> [--n N] [--f F] [--k K] [--writers W]"
            << " [--readers R] [--delta D]\n"
            << "                [--ops-per-client Q] [--value-bytes B]"
            << " [--seed S] [--reorder] [--crash i,j,...]\n"
            << "       memu verify <b1|41|51|65> <algo> [--domain M] [--nu V]\n"
            << "       memu explore <algo> [--n N] [--reorder]"
            << " [--reduce|--sleep-sets|--symmetry]\n"
            << "                [--max-states N] [--mem <bytes|512M|4G>]\n"
            << "algos: " << algo::family_names() << '\n';
  return 2;
}

int cmd_bounds(const Args& a) {
  if (a.positional.size() < 3) return usage();
  const std::size_t n = env::parse_count(a.positional[1], "N");
  const std::size_t f = env::parse_count(a.positional[2], "f");
  const std::size_t nu_max =
      a.positional.size() > 3 ? env::parse_count(a.positional[3], "nu_max")
                              : 16;
  using namespace bounds;
  std::cout << "bounds for N=" << n << ", f=" << f
            << " (normalized by log2|V|):\n"
            << "  Theorem B.1:  " << singleton_normalized(n, f) << '\n';
  if (f >= 2)
    std::cout << "  Theorem 4.1:  " << no_gossip_normalized(n, f) << '\n';
  std::cout << "  Theorem 5.1:  " << universal_normalized(n, f) << '\n'
            << "  ABD (f+1):    " << abd_ideal_normalized(f) << "\n\n";
  Table t({"nu", "thm6.5", "erasure", "winner"}, 12);
  for (const auto& r : figure1_series(n, f, nu_max)) {
    t.row().cell(r.nu).cell(r.thm_65).cell(r.erasure).cell(
        r.erasure < r.abd ? "erasure" : "replication");
  }
  t.print();
  return 0;
}

// The memu run flags that set a Spec field only some families read.
constexpr std::pair<const char*, algo::Field> kFieldFlags[] = {
    {"k", algo::kK}, {"writers", algo::kWriters}, {"delta", algo::kDelta}};

int cmd_run(const Args& a) {
  if (a.positional.size() < 2) return usage();
  const algo::Family* fam = algo::find(a.positional[1]);
  if (fam == nullptr) return usage();
  for (const auto& [flag, field] : kFieldFlags) {
    if (!a.has(flag) || fam->reads_field(field)) continue;
    std::cerr << "memu run: " << fam->name << " does not read --" << flag
              << "; the families that do:";
    for (const algo::Family& other : algo::families())
      if (other.reads_field(field)) std::cerr << ' ' << other.name;
    std::cerr << '\n';
    return 2;
  }

  algo::Spec spec;
  spec.n_servers = a.num("n", 5);
  // Coded families need N >= 2f + k: they default to f = 1.
  spec.f = a.num("f", fam->reads_field(algo::kK) ? 1 : 2);
  spec.k = a.num("k", 0);
  spec.n_writers = a.num("writers", fam->reads_field(algo::kWriters) ? 2 : 1);
  spec.n_readers = a.num("readers", 2);
  spec.value_size = a.num("value-bytes", 120);
  if (a.has("delta")) spec.delta = a.num("delta", 0);
  const std::size_t quota = a.num("ops-per-client", 4);
  const std::uint64_t seed = a.num("seed", 1);
  algo::Deployment sys = fam->build(spec);

  // Optional crash set.
  if (a.has("crash")) {
    std::stringstream ss(a.flags.at("crash"));
    std::string tok;
    while (std::getline(ss, tok, ',')) {
      const std::size_t idx = std::stoull(tok);
      if (idx >= sys.servers.size()) {
        std::cerr << "crash index out of range\n";
        return 2;
      }
      sys.world.crash(sys.servers[idx]);
      std::cout << "crashed server " << idx << '\n';
    }
  }

  workload::Options wopt;
  wopt.writes_per_writer = quota;
  wopt.reads_per_reader = quota;
  wopt.value_size = spec.value_size;
  wopt.seed = seed;
  wopt.policy = a.has("reorder") ? Scheduler::Policy::kRandomReorder
                                 : Scheduler::Policy::kRandom;
  const auto res = workload::run(sys.world, sys.writers, sys.readers, wopt);

  const double B = 8.0 * static_cast<double>(spec.value_size);
  std::cout << fam->name << " N=" << spec.n_servers << " f=" << spec.f
            << " B=" << B << " bits\n"
            << "  completed:        " << (res.completed ? "yes" : "NO")
            << " (" << res.steps << " deliveries)\n"
            << "  peak total store: " << res.storage.peak_total.total()
            << " bits = " << res.storage.normalized_peak_total(B)
            << " x B value + " << res.storage.peak_total.metadata_bits
            << " metadata\n"
            << "  peak per server:  " << res.storage.peak_max_server.total()
            << " bits\n";
  if (!res.op_latency_steps.empty()) {
    std::uint64_t total = 0, worst = 0;
    for (const auto l : res.op_latency_steps) {
      total += l;
      worst = std::max(worst, l);
    }
    std::cout << "  latency (deliveries/op): mean "
              << static_cast<double>(total) /
                     static_cast<double>(res.op_latency_steps.size())
              << ", max " << worst << '\n';
  }
  const Value v0 = enum_value(0, spec.value_size);
  if (res.history.size() <= 40) {
    const auto atomic = check_atomic(res.history, v0);
    std::cout << "  atomicity:        " << (atomic.ok ? "PASS" : "FAIL")
              << (atomic.ok ? "" : " — " + atomic.violation) << '\n';
    if (a.has("witness") && atomic.ok) {
      const auto lin = find_linearization(res.history, v0);
      std::cout << "  linearization:   ";
      for (const auto id : lin.order) std::cout << " op" << id;
      std::cout << '\n';
    }
  }
  const auto weak = check_weakly_regular(res.history, v0);
  std::cout << "  weak regularity:  " << (weak.ok ? "PASS" : "FAIL") << '\n';
  return res.completed && weak.ok ? 0 : 1;
}

int cmd_verify(const Args& a) {
  if (a.positional.size() < 3) return usage();
  const std::string which = a.positional[1];
  const algo::Family* fam = algo::find(a.positional[2]);
  if (fam == nullptr || (which != "b1" && which != "41" && which != "51" &&
                         which != "65"))
    return usage();
  const std::size_t domain = a.num("domain", 4);
  // N = 5; coded families need N >= 2f + k, so they run at f = 1 (k = 3).
  const std::size_t f = fam->reads_field(algo::kK) ? 1 : 2;

  if (which == "65") {
    const char* why = fam->in_value_phase == nullptr
                          ? "its writer has no single value-dependent phase"
                      : !fam->reads_field(algo::kWriters)
                          ? "it deploys one writer, the theorem parks nu"
                          : nullptr;
    if (why != nullptr) {
      std::cerr << "memu verify: theorem 6.5 does not apply to " << fam->name
                << ": " << why << '\n';
      return 2;
    }
    const std::size_t nu = a.num("nu", 2);
    const auto r = adversary::verify_staged_injectivity(
        adversary::mw_factory(fam->name, 5, f, 0, nu, 18), domain, nu);
    std::cout << "theorem 6.5 on " << fam->name << ": tuples=" << r.tuples
              << " staged=" << (r.all_completed ? "yes" : "NO")
              << " injective=" << (r.injective ? "yes" : "NO")
              << " (paper single-point map: "
              << (r.single_point_injective ? "injective" : "not injective")
              << ")\n";
    return r.injective ? 0 : 1;
  }

  const adversary::SutFactory factory =
      adversary::sut_factory(fam->name, 5, f, 0, 18);
  if (which == "b1") {
    const auto r = adversary::verify_singleton_injectivity(factory, domain);
    std::cout << "theorem B.1 on " << fam->name << ": |V|=" << r.domain
              << " injective=" << (r.injective ? "yes" : "NO")
              << " probes=" << (r.probes_consistent ? "ok" : "BAD") << '\n';
    return r.injective ? 0 : 1;
  }
  adversary::ProbeOptions probe;
  probe.flush_gossip = which == "51";
  const auto r = adversary::verify_pair_injectivity(factory, domain, probe);
  std::cout << "theorem " << (which == "51" ? "5.1" : "4.1") << " on "
            << fam->name << ": pairs=" << r.pairs
            << " injective=" << (r.injective ? "yes" : "NO")
            << " certificate=" << r.certificate_log2 << " >= " << r.bound_log2
            << '\n';
  return r.injective ? 0 : 1;
}

int cmd_explore(const Args& a) {
  if (a.positional.size() < 2) return usage();
  const algo::Family* fam = algo::find(a.positional[1]);
  if (fam == nullptr) return usage();
  const Value v0 = enum_value(0, 12);

  // One writer racing one reader on N servers, f = 1; coded families run
  // with k = 1.
  const std::size_t n = a.num("n", 3);
  algo::Deployment sys =
      fam->build({.n_servers = n, .f = 1, .k = 1, .value_size = 12});
  sys.world.invoke(sys.writers[0], {OpType::kWrite, unique_value(1, 1, 12)});
  sys.world.invoke(sys.readers[0], {OpType::kRead, {}});

  ExploreOptions opt;
  opt.reorder = a.has("reorder");
  opt.reduction.sleep_sets = a.has("reduce") || a.has("sleep-sets");
  opt.reduction.symmetry = a.has("reduce") || a.has("symmetry");
  opt.max_states = a.num("max-states", 2'000'000);
  if (a.has("mem")) opt.mem = MemBudget::parse(a.flags.at("mem"));
  const auto res = engine::frontier_search(
      sys.world, opt, {},
      [&](const World& w) -> std::optional<std::string> {
        if (w.oplog().responses_since(0) < 2) return "operation stuck";
        const auto verdict = run_check(
            fam->promises, History::from_oplog(w.oplog()), v0);
        if (!verdict.ok) return verdict.violation;
        return std::nullopt;
      });
  std::cout << "explored " << fam->name << " (write || read, N=" << n
            << ", f=1" << (opt.reorder ? ", non-FIFO" : ", FIFO")
            << "): states=" << res.states_visited
            << " terminals=" << res.terminal_states
            << " complete=" << (res.complete ? "yes" : "NO") << " -> "
            << (res.ok ? "VERIFIED " + check_kind_name(fam->promises) +
                             "+live"
                       : "VIOLATION: " + res.violation)
            << '\n';
  if (opt.reduction.sleep_sets || opt.reduction.symmetry) {
    std::cout << "reduction: sleep_sets="
              << (opt.reduction.sleep_sets ? "on" : "off")
              << " symmetry="
              << (res.symmetry_applied
                      ? "on"
                      : (opt.reduction.symmetry ? "ineligible" : "off"))
              << " sleep_blocked=" << res.sleep_blocked
              << " symmetry_merged=" << res.symmetry_merged
              << " transitions=" << res.transitions << '\n';
  }
  return res.ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args a = cli::parse(
        argc, argv, {"reorder", "witness", "reduce", "sleep-sets", "symmetry"},
        {"n", "f", "k", "writers", "readers", "ops-per-client", "value-bytes",
         "seed", "crash", "delta", "domain", "nu", "max-states", "mem"});
    if (a.positional.empty()) return usage();
    const std::string& cmd = a.positional[0];
    if (cmd == "bounds") return cmd_bounds(a);
    if (cmd == "run") return cmd_run(a);
    if (cmd == "verify") return cmd_verify(a);
    if (cmd == "explore") return cmd_explore(a);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
  return usage();
}

// memu — command-line driver for the memucost library.
//
//   memu bounds <N> <f> [nu_max]
//       Print every storage bound of the paper for these parameters.
//
//   memu run <algo> [--n N] [--f F] [--k K] [--writers W] [--readers R]
//            [--ops-per-client Q] [--value-bytes B] [--seed S] [--reorder]
//            [--crash i[,j,...]]
//       Drive a workload on a simulated deployment; print storage costs,
//       latency, and the consistency verdict.
//       algos: abd | abd-swmr | abd-regular | cas | casgc | cas-hash |
//              gossip | ldr | strip
//
//   memu verify <b1|41|51> <abd|cas|gossip|ldr> [--domain M]
//       Execute the corresponding lower-bound proof construction.
//
//   memu verify 65 <abd|cas|cas-hash> [--nu V] [--domain M]
//       Execute the Theorem 6.5 staged-delivery construction.
//
//   memu explore <abd|cas> [--n N] [--reorder]
//       [--reduce|--sleep-sets|--symmetry] [--max-states N] [--mem 64M]
//       Exhaustively model-check a small configuration. --reduce enables
//       both partial-order reductions (sleep sets + server symmetry);
//       the individual flags enable one at a time. --mem applies the hard
//       memory budget: a ceiling on visited-set growth (half of it) and on
//       the frontier (an eighth); a run that passes either fails with a
//       --mem sizing hint.
#include <cstring>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "adversary/harness.h"
#include "adversary/theorem65.h"
#include "algo/abd/system.h"
#include "algo/cas/system.h"
#include "algo/gossip/gossip.h"
#include "algo/ldr/ldr.h"
#include "algo/strip/strip.h"
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
            << " [--readers R]\n"
            << "                [--ops-per-client Q] [--value-bytes B]"
            << " [--seed S] [--reorder] [--crash i,j,...]\n"
            << "       memu verify <b1|41|51|65> <algo> [--domain M] [--nu V]\n"
            << "       memu explore <abd|cas> [--n N] [--reorder]"
            << " [--reduce|--sleep-sets|--symmetry]\n"
            << "                [--max-states N] [--mem <bytes|512M|4G>]\n"
            << "algos: abd abd-swmr abd-regular cas casgc cas-hash gossip"
            << " ldr strip\n";
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

struct RunHandles {
  World* world = nullptr;
  std::vector<NodeId> servers, writers, readers;
};

int cmd_run(const Args& a) {
  if (a.positional.size() < 2) return usage();
  const std::string algo = a.positional[1];
  const std::size_t n = a.num("n", 5);
  const std::size_t f = a.num("f", algo.rfind("cas", 0) == 0 ? 1 : 2);
  const std::size_t k = a.num("k", 0);
  const std::size_t writers = a.num("writers", algo == "abd-swmr" ||
                                                       algo == "gossip"
                                                   ? 1
                                                   : 2);
  const std::size_t readers = a.num("readers", 2);
  const std::size_t quota = a.num("ops-per-client", 4);
  const std::size_t value_bytes = a.num("value-bytes", 120);
  const std::uint64_t seed = a.num("seed", 1);

  // Build the system; keep the concrete object alive via locals.
  abd::System asys;
  cas::System csys;
  gossip::System gsys;
  ldr::System lsys;
  strip::System ssys;
  RunHandles h;

  if (algo == "abd" || algo == "abd-swmr" || algo == "abd-regular") {
    abd::Options o;
    o.n_servers = n;
    o.f = f;
    o.n_writers = writers;
    o.n_readers = readers;
    o.value_size = value_bytes;
    o.single_writer = algo == "abd-swmr";
    o.read_write_back = algo != "abd-regular";
    asys = abd::make_system(o);
    h = {&asys.world, asys.servers, asys.writers, asys.readers};
  } else if (algo == "cas" || algo == "casgc" || algo == "cas-hash") {
    cas::Options o;
    o.n_servers = n;
    o.f = f;
    o.k = k;
    o.n_writers = writers;
    o.n_readers = readers;
    o.value_size = value_bytes;
    if (algo == "casgc") o.delta = a.num("delta", 1);
    o.hash_phase = algo == "cas-hash";
    csys = cas::make_system(o);
    h = {&csys.world, csys.servers, csys.writers, csys.readers};
  } else if (algo == "gossip") {
    gossip::Options o;
    o.n_servers = n;
    o.f = f;
    o.n_readers = readers;
    o.value_size = value_bytes;
    gsys = gossip::make_system(o);
    h = {&gsys.world, gsys.servers, {gsys.writer}, gsys.readers};
  } else if (algo == "ldr") {
    ldr::Options o;
    o.n_servers = n;
    o.f = f;
    o.n_writers = writers;
    o.n_readers = readers;
    o.value_size = value_bytes;
    lsys = ldr::make_system(o);
    h = {&lsys.world, lsys.servers, lsys.writers, lsys.readers};
  } else if (algo == "strip") {
    strip::Options o;
    o.n_servers = n;
    o.f = f;
    o.n_writers = writers;
    o.n_readers = readers;
    o.value_size = value_bytes;
    ssys = strip::make_system(o);
    h = {&ssys.world, ssys.servers, ssys.writers, ssys.readers};
  } else {
    return usage();
  }

  // Optional crash set.
  if (a.has("crash")) {
    std::stringstream ss(a.flags.at("crash"));
    std::string tok;
    while (std::getline(ss, tok, ',')) {
      const std::size_t idx = std::stoull(tok);
      if (idx >= h.servers.size()) {
        std::cerr << "crash index out of range\n";
        return 2;
      }
      h.world->crash(h.servers[idx]);
      std::cout << "crashed server " << idx << '\n';
    }
  }

  workload::Options wopt;
  wopt.writes_per_writer = quota;
  wopt.reads_per_reader = quota;
  wopt.value_size = value_bytes;
  wopt.seed = seed;
  wopt.policy = a.has("reorder") ? Scheduler::Policy::kRandomReorder
                                 : Scheduler::Policy::kRandom;
  const auto res = workload::run(*h.world, h.writers, h.readers, wopt);

  const double B = 8.0 * static_cast<double>(value_bytes);
  std::cout << algo << " N=" << n << " f=" << f << " B=" << B << " bits\n"
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
  const Value v0 = enum_value(0, value_bytes);
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
  const std::string algo = a.positional[2];
  const std::size_t domain = a.num("domain", 4);

  if (which == "65") {
    const std::size_t nu = a.num("nu", 2);
    adversary::MwSutFactory factory;
    if (algo == "abd")
      factory = adversary::abd_mw_factory(5, 2, nu, 18);
    else if (algo == "cas")
      factory = adversary::cas_mw_factory(5, 1, 3, nu, 18);
    else if (algo == "cas-hash")
      factory = adversary::cas_hash_mw_factory(5, 1, 3, nu, 18);
    else
      return usage();
    const auto r = adversary::verify_staged_injectivity(factory, domain, nu);
    std::cout << "theorem 6.5 on " << algo << ": tuples=" << r.tuples
              << " staged=" << (r.all_completed ? "yes" : "NO")
              << " injective=" << (r.injective ? "yes" : "NO")
              << " (paper single-point map: "
              << (r.single_point_injective ? "injective" : "not injective")
              << ")\n";
    return r.injective ? 0 : 1;
  }

  adversary::SutFactory factory;
  if (algo == "abd")
    factory = adversary::abd_sut_factory(5, 2, 16);
  else if (algo == "cas")
    factory = adversary::cas_sut_factory(5, 1, 3, 18, {});
  else if (algo == "gossip")
    factory = adversary::gossip_sut_factory(5, 2, 16);
  else if (algo == "ldr")
    factory = adversary::ldr_sut_factory(5, 1, 16);
  else
    return usage();

  if (which == "b1") {
    const auto r = adversary::verify_singleton_injectivity(factory, domain);
    std::cout << "theorem B.1 on " << algo << ": |V|=" << r.domain
              << " injective=" << (r.injective ? "yes" : "NO")
              << " probes=" << (r.probes_consistent ? "ok" : "BAD") << '\n';
    return r.injective ? 0 : 1;
  }
  if (which == "41" || which == "51") {
    adversary::ProbeOptions probe;
    probe.flush_gossip = which == "51";
    const auto r = adversary::verify_pair_injectivity(factory, domain, probe);
    std::cout << "theorem " << (which == "51" ? "5.1" : "4.1") << " on "
              << algo << ": pairs=" << r.pairs
              << " injective=" << (r.injective ? "yes" : "NO")
              << " certificate=" << r.certificate_log2
              << " >= " << r.bound_log2 << '\n';
    return r.injective ? 0 : 1;
  }
  return usage();
}

int cmd_explore(const Args& a) {
  if (a.positional.size() < 2) return usage();
  const std::string algo = a.positional[1];
  const Value v0 = enum_value(0, 12);

  World* world = nullptr;
  abd::System asys;
  cas::System csys;
  const std::size_t n = a.num("n", 3);
  if (algo == "abd") {
    abd::Options o;
    o.n_servers = n;
    o.f = 1;
    o.single_writer = true;
    o.value_size = 12;
    asys = abd::make_system(o);
    asys.world.invoke(asys.writers[0],
                      {OpType::kWrite, unique_value(1, 1, 12)});
    asys.world.invoke(asys.readers[0], {OpType::kRead, {}});
    world = &asys.world;
  } else if (algo == "cas") {
    cas::Options o;
    o.n_servers = n;
    o.f = 1;
    o.k = 1;
    o.n_writers = 1;
    o.value_size = 12;
    csys = cas::make_system(o);
    csys.world.invoke(csys.writers[0],
                      {OpType::kWrite, unique_value(1, 1, 12)});
    csys.world.invoke(csys.readers[0], {OpType::kRead, {}});
    world = &csys.world;
  } else {
    return usage();
  }

  ExploreOptions opt;
  opt.reorder = a.has("reorder");
  opt.reduction.sleep_sets = a.has("reduce") || a.has("sleep-sets");
  opt.reduction.symmetry = a.has("reduce") || a.has("symmetry");
  opt.max_states = a.num("max-states", 2'000'000);
  if (a.has("mem")) opt.mem = MemBudget::parse(a.flags.at("mem"));
  const auto res = engine::frontier_search(
      *world, opt, {},
      [&](const World& w) -> std::optional<std::string> {
        if (w.oplog().responses_since(0) < 2) return "operation stuck";
        const auto verdict = check_atomic(History::from_oplog(w.oplog()), v0);
        if (!verdict.ok) return verdict.violation;
        return std::nullopt;
      });
  std::cout << "explored " << algo << " (write || read, N=" << n << ", f=1"
            << (opt.reorder ? ", non-FIFO" : ", FIFO") << "): states="
            << res.states_visited << " terminals=" << res.terminal_states
            << " complete=" << (res.complete ? "yes" : "NO") << " -> "
            << (res.ok ? "VERIFIED atomic+live" : "VIOLATION: " + res.violation)
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

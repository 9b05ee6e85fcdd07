// memu_fuzz — fault-injection fuzz campaigns for the memucost simulators.
//
//   memu_fuzz run [--algo A[,B,...]] [--seed S] [--walks W] [--max-steps M]
//                 [--writes Q] [--reads Q] [--check atomic|regular-swsr|
//                 weakly-regular] [--n N] [--f F] [--k K] [--writers W]
//                 [--readers R] [--value-bytes B] [--mix standard|crashes]
//                 [--threads T] [--mem BUDGET] [--no-minimize]
//                 [--out-dir DIR] [--expect-violations]
//       Run one deterministic campaign per algo. The summary JSON on stdout
//       is byte-identical across runs with the same flags AND any --threads
//       or --mem value (timing and thread count go to stderr). Violating
//       walks are minimized (unless --no-minimize) and written to
//       DIR/FUZZTRACE_<algo>_<walk>.json. Exit 0 when no violations were
//       found (inverted by --expect-violations).
//
//   memu_fuzz replay <trace.json>
//       Re-execute a recorded trace. Exit 0 iff the violation reproduces.
//
//   memu_fuzz shrink <trace.json> [--out FILE] [--threads T] [--mem BUDGET]
//       Delta-debug a trace to a 1-minimal event script. --threads probes
//       each ddmin round concurrently; the minimized trace and replay count
//       are identical for any value.
//
// --threads defaults to the hardware concurrency (capped at 8); pass
// --threads 1 to force serial execution. --mem takes <bytes|512M|4G>
// (K/M/G = powers of 1024) and is validated against the concurrent-walk
// envelope up front: a budget too small for --threads walks fails loudly
// with a sizing hint instead of OOMing mid-campaign.
#include <chrono>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/arena.h"
#include "common/env.h"
#include "engine/thread_pool.h"
#include "fuzz/campaign.h"
#include "fuzz/minimizer.h"
#include "fuzz/plan.h"
#include "fuzz/trace_io.h"

namespace {

using namespace memu;
using namespace memu::fuzz;

struct Args {
  std::vector<std::string> positional;
  std::map<std::string, std::string> flags;

  bool has(const std::string& f) const { return flags.contains(f); }
  std::size_t num(const std::string& f, std::size_t fallback) const {
    const auto it = flags.find(f);
    if (it == flags.end()) return fallback;
    return env::parse_count(it->second, ("--" + f).c_str());
  }
  std::string str(const std::string& f, const std::string& fallback) const {
    const auto it = flags.find(f);
    return it == flags.end() ? fallback : it->second;
  }
  std::optional<std::string> opt(const std::string& f) const {
    const auto it = flags.find(f);
    if (it == flags.end()) return std::nullopt;
    return it->second;
  }
};

// --mem under the common/env.h flag-wins rule: the flag, else
// MEMU_MEM_BUDGET, else unbudgeted.
std::optional<MemBudget> mem_budget(const Args& a) {
  const MemBudget mem = env::mem_budget_or(a.opt("mem"));
  if (!mem.bounded()) return std::nullopt;
  return mem;
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string s = argv[i];
    if (s.rfind("--", 0) == 0) {
      const std::string key = s.substr(2);
      if (key == "no-minimize" || key == "expect-violations") {
        a.flags[key] = "1";
      } else if (i + 1 < argc) {
        a.flags[key] = argv[++i];
      } else {
        a.flags[key] = "";
      }
    } else {
      a.positional.push_back(s);
    }
  }
  return a;
}

int usage() {
  std::cerr
      << "usage: memu_fuzz run [--algo A[,B,...]] [--seed S] [--walks W]\n"
      << "                     [--max-steps M] [--writes Q] [--reads Q]\n"
      << "                     [--check atomic|regular-swsr|weakly-regular]\n"
      << "                     [--n N] [--f F] [--k K] [--writers W]"
      << " [--readers R]\n"
      << "                     [--value-bytes B] [--mix standard|crashes]\n"
      << "                     [--threads T] [--mem BUDGET] [--no-minimize]\n"
      << "                     [--out-dir DIR] [--expect-violations]\n"
      << "       memu_fuzz replay <trace.json>\n"
      << "       memu_fuzz shrink <trace.json> [--out FILE] [--threads T]\n"
      << "                       [--mem BUDGET]\n"
      << "algos: abd abd-regular cas ldr strip\n"
      << "--threads defaults to hardware concurrency (capped at 8); output\n"
      << "is byte-identical for any value. --mem takes <bytes|512M|4G> and\n"
      << "fails loudly up front when the budget cannot cover --threads\n"
      << "concurrent walks\n";
  return 2;
}

std::vector<std::string> split_csv(const std::string& s) {
  std::vector<std::string> out;
  std::stringstream ss(s);
  std::string tok;
  while (std::getline(ss, tok, ',')) {
    if (!tok.empty()) out.push_back(tok);
  }
  return out;
}

SystemSpec spec_for(const Args& a, const std::string& algo) {
  SystemSpec spec;
  spec.algo = algo;
  spec.n_servers = a.num("n", 5);
  spec.f = a.num("f", 2);
  spec.k = a.num("k", 0);
  // LDR's regularity checker assumes a single writer.
  spec.n_writers = a.num("writers", algo == "ldr" ? 1 : 2);
  spec.n_readers = a.num("readers", 2);
  // 60 bytes divides evenly under every built-in code dimension.
  spec.value_size = a.num("value-bytes", 60);
  return spec;
}

int cmd_run(const Args& a) {
  const std::vector<std::string> algos = split_csv(a.str("algo", "abd"));
  if (algos.empty()) return usage();

  const std::string mix_name = a.str("mix", "standard");
  FaultMix mix;
  if (mix_name == "standard") {
    mix = FaultMix::standard();
  } else if (mix_name == "crashes") {
    mix = FaultMix::crashes_only();
  } else {
    std::cerr << "unknown mix '" << mix_name << "'\n";
    return 2;
  }

  const std::string out_dir = a.str("out-dir", ".");
  std::size_t violations_total = 0;

  for (const std::string& algo : algos) {
    const SystemSpec spec = spec_for(a, algo);
    FuzzPlan plan;
    plan.seed = a.num("seed", 1);
    plan.walks = a.num("walks", 16);
    plan.max_steps = a.num("max-steps", 20'000);
    plan.writes_per_writer = a.num("writes", 3);
    plan.reads_per_reader = a.num("reads", 3);
    plan.check = a.has("check") ? check_kind_from_name(a.flags.at("check"))
                                : spec.default_check();
    plan.mix = mix;
    plan.minimize = !a.has("no-minimize");
    plan.threads = a.num("threads", engine::default_worker_count());
    if (const auto mem = mem_budget(a)) {
      plan.mem = *mem;
      // An explicit budget also caps the World slab pages (process blocks,
      // channel slots, oplog chunks) so a runaway walk fails in --mem terms
      // instead of OOMing.
      worldmem::set_limit(plan.mem.total);
    }

    const auto t0 = std::chrono::steady_clock::now();
    const CampaignSummary summary = run_campaign(spec, plan);
    const auto t1 = std::chrono::steady_clock::now();

    std::cout << summary.to_json();
    // Wall-clock and thread count stay OFF stdout so summaries compare
    // byte-identical across runs and --threads values.
    const double secs =
        std::chrono::duration<double>(t1 - t0).count();
    std::cerr << algo << ": " << summary.plan.walks << " walks ("
              << plan.threads << " threads), " << summary.steps_total
              << " deliveries, " << summary.violations << " violations in "
              << secs << "s ("
              << (secs > 0 ? static_cast<double>(summary.plan.walks) / secs
                           : 0)
              << " walks/s)\n";

    violations_total += summary.violations;
    for (const WalkResult& w : summary.walks) {
      if (w.check.ok) continue;
      std::ostringstream path;
      path << out_dir << "/FUZZTRACE_" << algo << '_' << w.walk_index
           << ".json";
      save_trace(w.trace, path.str());
      std::cerr << "  wrote " << path.str() << " (" << w.trace.events.size()
                << " events)\n";
    }
  }

  const bool expect = a.has("expect-violations");
  if (expect) return violations_total > 0 ? 0 : 1;
  return violations_total == 0 ? 0 : 1;
}

int cmd_replay(const Args& a) {
  if (a.positional.size() < 2) return usage();
  const FuzzTrace trace = load_trace(a.positional[1]);
  const WalkResult r = replay_trace(trace);
  std::cout << "replay of " << a.positional[1] << ":\n"
            << "  algo:        " << trace.spec.algo << " (check "
            << check_kind_name(trace.check) << ")\n"
            << "  walk seed:   " << trace.walk_seed << "\n"
            << "  steps:       " << r.steps << "\n"
            << "  events:      " << r.injected << " applied, " << r.skipped
            << " skipped\n"
            << "  verdict:     " << (r.check.ok ? "PASS" : "VIOLATION") << '\n';
  if (!r.check.ok) {
    std::cout << "  violation:   " << r.check.violation << '\n';
    if (r.check.first_divergence_op.has_value())
      std::cout << "  diverges at: op " << *r.check.first_divergence_op
                << '\n';
  }
  return r.check.ok ? 1 : 0;  // exit 0 iff the violation reproduced
}

int cmd_shrink(const Args& a) {
  if (a.positional.size() < 2) return usage();
  const FuzzTrace trace = load_trace(a.positional[1]);
  const std::size_t threads = a.num("threads", engine::default_worker_count());
  if (const auto memopt = mem_budget(a)) {
    // Same up-front envelope gate as run_campaign: ddmin probes are
    // walk-shaped replays, one per worker at a time.
    const MemBudget mem = *memopt;
    constexpr std::size_t kWalkEnvelopeBytes = 4ull << 20;
    MEMU_CHECK_MSG(mem.total >= threads * kWalkEnvelopeBytes,
                   "--mem " << mem.to_string() << " cannot cover " << threads
                            << " concurrent replay probes (~4 MiB envelope "
                               "each): rerun with --mem >= "
                            << MemBudget{threads * kWalkEnvelopeBytes}
                                   .to_string()
                            << " or fewer --threads");
    worldmem::set_limit(mem.total);  // cap the World slab pages too
  }
  const auto t0 = std::chrono::steady_clock::now();
  const MinimizeResult m = minimize(trace, threads);
  const auto t1 = std::chrono::steady_clock::now();
  std::cerr << "shrink: " << m.tests_run << " replays (" << threads
            << " threads) in "
            << std::chrono::duration<double>(t1 - t0).count() << "s\n";
  std::cout << "shrink of " << a.positional[1] << ":\n"
            << "  events:     " << trace.events.size() << " -> "
            << m.trace.events.size() << "\n"
            << "  replays:    " << m.tests_run << "\n"
            << "  violates:   " << (m.still_violates ? "yes" : "NO — input"
                                                       " did not violate")
            << '\n';
  if (!m.still_violates) return 1;
  const std::string out = a.str("out", a.positional[1] + ".min");
  save_trace(m.trace, out);
  std::cout << "  wrote " << out << '\n';
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args a = parse(argc, argv);
  if (a.positional.empty()) return usage();
  try {
    const std::string& cmd = a.positional[0];
    if (cmd == "run") return cmd_run(a);
    if (cmd == "replay") return cmd_replay(a);
    if (cmd == "shrink") return cmd_shrink(a);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
  return usage();
}

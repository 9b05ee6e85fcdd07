// memu — the one command line of the memucost library: the paper's bounds,
// simulated runs, the executed proofs, exhaustive checking, fuzz campaigns,
// parameter sweeps and the Figure 1 artifact.
//
// kCommands below is the whole interface: each subcommand's positional
// arity, switches, value flags, usage lines and handler. `memu` with no
// arguments prints the usage text from it. A flag the subcommand does not
// read is refused, not ignored.
//
// Exit codes, applied in main() only:
//   0  the command passed;
//   1  a verdict came back negative: a violation, a `verify` condition
//      that failed (-> VIOLATED), `completed: NO`, a replay that did not
//      reproduce, a shrink input that did not violate, or
//      `--expect-violations` finding none;
//   2  no verdict: a usage error, malformed input, an exhausted --mem
//      budget, an exploration stopped at --max-states, or any other
//      exception (one line, "memu <subcommand>: ...").
#include <algorithm>
#include <chrono>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "adversary/harness.h"
#include "adversary/theorem65.h"
#include "algo/registry.h"
#include "bounds/bounds.h"
#include "common/arena.h"
#include "common/cli.h"
#include "common/table.h"
#include "consistency/checker.h"
#include "engine/frontier.h"
#include "engine/thread_pool.h"
#include "fuzz/campaign.h"
#include "fuzz/minimizer.h"
#include "fuzz/plan.h"
#include "fuzz/trace_io.h"
#include "sweep/fig1.h"
#include "sweep/grid.h"
#include "sweep/sweep.h"
#include "workload/driver.h"

namespace {

using namespace memu;
using cli::Args;

constexpr int kPassed = 0;
constexpr int kNegative = 1;
constexpr int kNoVerdict = 2;

// --threads: the hardware concurrency (capped at 8) unless given.
std::size_t threads_flag(const Args& a) {
  return a.num("threads", engine::default_worker_count());
}

// --mem: unbudgeted unless given.
MemBudget mem_flag(const Args& a) {
  const std::optional<std::string> flag = a.opt("mem");
  return flag.has_value() ? MemBudget::parse(*flag) : MemBudget{};
}

bool cmd_bounds(const Args& a) {
  const std::size_t n = cli::parse_count(a.positional[0], "N");
  const std::size_t f = cli::parse_count(a.positional[1], "f");
  const std::size_t nu_max =
      a.positional.size() > 2 ? cli::parse_count(a.positional[2], "nu_max")
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
  return true;
}

// The memu run flags that set a Spec field only some families read.
constexpr std::pair<const char*, algo::Field> kFieldFlags[] = {
    {"k", algo::kK}, {"writers", algo::kWriters}, {"delta", algo::kDelta}};

// The server indices of `--crash i[,j,...]`: each a decimal count below
// `servers`, none repeated, and at most f of them (the model tolerates at
// most f crashes).
std::vector<std::size_t> crash_set(const std::string& list,
                                   std::size_t servers, std::size_t f) {
  std::vector<std::size_t> out;
  std::size_t start = 0;
  while (true) {
    const std::size_t end = std::min(list.find(',', start), list.size());
    const std::string token = list.substr(start, end - start);
    MEMU_CHECK_MSG(!token.empty(),
                   "--crash='" << list << "' has an empty index");
    const std::size_t idx = cli::parse_count(token, "--crash");
    MEMU_CHECK_MSG(idx < servers, "--crash index " << idx
                                      << " is out of range (N=" << servers
                                      << ")");
    MEMU_CHECK_MSG(std::find(out.begin(), out.end(), idx) == out.end(),
                   "--crash names server " << idx << " twice");
    out.push_back(idx);
    if (end == list.size()) break;
    start = end + 1;
  }
  MEMU_CHECK_MSG(out.size() <= f, "--crash names " << out.size()
                                      << " servers; the model tolerates at "
                                         "most f="
                                      << f << " crashes");
  return out;
}

bool cmd_run(const Args& a) {
  const algo::Family& fam = algo::family(a.positional[0]);
  for (const auto& [flag, field] : kFieldFlags) {
    if (!a.has(flag) || fam.reads_field(field)) continue;
    std::ostringstream families;
    for (const algo::Family& other : algo::families())
      if (other.reads_field(field)) families << ' ' << other.name;
    throw ContractError(std::string(fam.name) + " does not read --" + flag +
                        "; the families that do:" + families.str());
  }

  algo::Spec spec;
  spec.n_servers = a.num("n", 5);
  // Coded families need N >= 2f + k: they default to f = 1.
  spec.f = a.num("f", fam.reads_field(algo::kK) ? 1 : 2);
  spec.k = a.num("k", 0);
  spec.n_writers = a.num("writers", fam.reads_field(algo::kWriters) ? 2 : 1);
  spec.n_readers = a.num("readers", 2);
  spec.value_size = a.num("value-bytes", 120);
  if (a.has("delta")) spec.delta = a.num("delta", 0);
  const std::size_t quota = a.num("ops-per-client", 4);
  const std::uint64_t seed = a.num("seed", 1);
  algo::Deployment sys = fam.build(spec);

  if (const auto list = a.opt("crash")) {
    for (const std::size_t idx : crash_set(*list, sys.servers.size(), spec.f)) {
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
  std::cout << fam.name << " N=" << spec.n_servers << " f=" << spec.f
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
  return res.completed && weak.ok;
}

const char* yes_no(bool b) { return b ? "yes" : "NO"; }

// Each theorem's line names every condition its adversary::holds() checks,
// and the exit code is that function's verdict.
bool cmd_verify(const Args& a) {
  const std::string& which = a.positional[0];
  MEMU_CHECK_MSG(which == "b1" || which == "41" || which == "51" ||
                     which == "65",
                 "unknown theorem '" << which << "' (b1, 41, 51 or 65)");
  MEMU_CHECK_MSG(which == "65" || !a.has("nu"),
                 "only theorem 6.5 reads --nu");
  const algo::Family& fam = algo::family(a.positional[1]);
  const std::size_t domain = a.num("domain", 4);
  // N = 5; coded families need N >= 2f + k, so they run at f = 1 (k = 3).
  const std::size_t f = fam.reads_field(algo::kK) ? 1 : 2;
  const auto verdict = [](bool held) {
    std::cout << (held ? " -> HOLDS" : " -> VIOLATED") << '\n';
    return held;
  };

  if (which == "65") {
    const char* why = fam.in_value_phase == nullptr
                          ? "its writer has no single value-dependent phase"
                      : !fam.reads_field(algo::kWriters)
                          ? "it deploys one writer, the theorem parks nu"
                          : nullptr;
    if (why != nullptr)
      throw ContractError("theorem 6.5 does not apply to " +
                          std::string(fam.name) + ": " + why);
    const std::size_t nu = a.num("nu", 2);
    const auto r = adversary::verify_staged_injectivity(
        adversary::mw_factory(fam.name, 5, f, 0, nu, 18), domain, nu);
    std::cout << "theorem 6.5 on " << fam.name << ": tuples=" << r.tuples
              << " parked=" << yes_no(r.all_parked)
              << " staged=" << yes_no(r.all_completed)
              << " a-monotone=" << yes_no(r.a_monotone)
              << " injective=" << yes_no(r.injective)
              << " (paper single-point map: "
              << (r.single_point_injective ? "injective" : "not injective")
              << ")";
    return verdict(adversary::holds(r));
  }

  const adversary::SutFactory factory =
      adversary::sut_factory(fam.name, 5, f, 0, 18);
  if (which == "b1") {
    const auto r = adversary::verify_singleton_injectivity(factory, domain);
    std::cout << "theorem B.1 on " << fam.name << ": |V|=" << r.domain
              << " injective=" << yes_no(r.injective)
              << " probes=" << yes_no(r.probes_consistent)
              << " certificate=" << r.certificate_log2 << " >= "
              << r.bound_log2;
    return verdict(adversary::holds(r));
  }
  adversary::ProbeOptions probe;
  probe.flush_gossip = which == "51";
  const auto r = adversary::verify_pair_injectivity(factory, domain, probe);
  std::cout << "theorem " << (which == "51" ? "5.1" : "4.1") << " on "
            << fam.name << ": pairs=" << r.pairs
            << " found=" << yes_no(r.all_found)
            << " flips=" << yes_no(r.all_consistent)
            << " single-change=" << yes_no(r.all_single_change)
            << " injective=" << yes_no(r.injective)
            << " certificate=" << r.certificate_log2 << " >= " << r.bound_log2;
  return verdict(adversary::holds(r));
}

bool cmd_explore(const Args& a) {
  const algo::Family& fam = algo::family(a.positional[0]);
  const Value v0 = enum_value(0, 12);

  // One writer racing one reader on N servers, f = 1; coded families run
  // with k = 1.
  const std::size_t n = a.num("n", 3);
  algo::Deployment sys =
      fam.build({.n_servers = n, .f = 1, .k = 1, .value_size = 12});
  sys.world.invoke(sys.writers[0], {OpType::kWrite, unique_value(1, 1, 12)});
  sys.world.invoke(sys.readers[0], {OpType::kRead, {}});

  ExploreOptions opt;
  opt.reorder = a.has("reorder");
  opt.reduction.sleep_sets = a.has("reduce") || a.has("sleep-sets");
  opt.reduction.symmetry = a.has("reduce") || a.has("symmetry");
  opt.max_states = a.num("max-states", 2'000'000);
  opt.mem = mem_flag(a);
  const auto res = engine::frontier_search(
      sys.world, opt, {},
      [&](const World& w) -> std::optional<std::string> {
        if (w.oplog().responses_since(0) < 2) return "operation stuck";
        const auto verdict = run_check(
            fam.promises, History::from_oplog(w.oplog()), v0);
        if (!verdict.ok) return verdict.violation;
        return std::nullopt;
      });
  std::cout << "explored " << fam.name << " (write || read, N=" << n
            << ", f=1" << (opt.reorder ? ", non-FIFO" : ", FIFO")
            << "): states=" << res.states_visited
            << " terminals=" << res.terminal_states
            << " complete=" << (res.complete ? "yes" : "NO") << " -> "
            << (!res.ok          ? "VIOLATION: " + res.violation
                : res.complete ? "VERIFIED " + check_kind_name(fam.promises) +
                                     "+live"
                               : std::string("no verdict"))
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
  // A violation found before the cap stands; a clean partial search proves
  // nothing.
  if (res.ok && !res.complete)
    throw ContractError("the search stopped at --max-states " +
                        std::to_string(opt.max_states) +
                        " before covering the space; rerun with a larger "
                        "--max-states");
  return res.ok;
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

// The fuzz spec. Its defaults differ from `memu run`'s (60-byte values,
// f = 2 for every family, one writer for a regular-swsr family), so the two
// spec builders stay apart.
fuzz::SystemSpec fuzz_spec(const Args& a, const std::string& algo) {
  fuzz::SystemSpec spec;
  spec.algo = algo;
  spec.n_servers = a.num("n", 5);
  spec.f = a.num("f", 2);
  spec.k = a.num("k", 0);
  // The regular-swsr checker assumes a single writer, so a family that
  // promises it (ldr, gossip, abd-regular) defaults to one.
  const algo::Family* family = algo::find(algo);
  const bool single_writer =
      family != nullptr && family->promises == CheckKind::kRegularSwsr;
  spec.n_writers = a.num("writers", single_writer ? 1 : 2);
  spec.n_readers = a.num("readers", 2);
  // 60 bytes divides evenly under every built-in code dimension.
  spec.value_size = a.num("value-bytes", 60);
  return spec;
}

bool cmd_fuzz_run(const Args& a) {
  using namespace memu::fuzz;
  const std::vector<std::string> algos = split_csv(a.str("algo", "abd"));
  MEMU_CHECK_MSG(!algos.empty(), "--algo names no family");

  const std::string mix_name = a.str("mix", "standard");
  MEMU_CHECK_MSG(mix_name == "standard" || mix_name == "crashes",
                 "unknown mix '" << mix_name << "' (standard or crashes)");
  const FaultMix mix = mix_name == "standard" ? FaultMix::standard()
                                              : FaultMix::crashes_only();
  const MemBudget mem = mem_flag(a);
  // An explicit budget also caps the World slab pages (process blocks,
  // channel slots, oplog chunks) so a runaway walk fails in --mem terms
  // instead of OOMing.
  if (mem.bounded()) worldmem::set_limit(mem.total);

  const std::string out_dir = a.str("out-dir", ".");
  std::size_t violations_total = 0;

  for (const std::string& algo : algos) {
    const SystemSpec spec = fuzz_spec(a, algo);
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
    plan.threads = threads_flag(a);
    plan.mem = mem;

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

  return a.has("expect-violations") ? violations_total > 0
                                    : violations_total == 0;
}

// Passes iff the recorded violation reproduces.
bool cmd_fuzz_replay(const Args& a) {
  const fuzz::FuzzTrace trace = fuzz::load_trace(a.positional[0]);
  const fuzz::WalkResult r = fuzz::replay_trace(trace);
  std::cout << "replay of " << a.positional[0] << ":\n"
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
  return !r.check.ok;
}

bool cmd_fuzz_shrink(const Args& a) {
  const fuzz::FuzzTrace trace = fuzz::load_trace(a.positional[0]);
  const std::size_t threads = threads_flag(a);
  if (const MemBudget mem = mem_flag(a); mem.bounded()) {
    // Same up-front envelope gate as run_campaign: ddmin probes are
    // walk-shaped replays, one per worker at a time.
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
  const fuzz::MinimizeResult m = fuzz::minimize(trace, threads);
  const auto t1 = std::chrono::steady_clock::now();
  std::cerr << "shrink: " << m.tests_run << " replays (" << threads
            << " threads) in "
            << std::chrono::duration<double>(t1 - t0).count() << "s\n";
  std::cout << "shrink of " << a.positional[0] << ":\n"
            << "  events:     " << trace.events.size() << " -> "
            << m.trace.events.size() << "\n"
            << "  replays:    " << m.tests_run << "\n"
            << "  violates:   " << (m.still_violates ? "yes" : "NO — input"
                                                       " did not violate")
            << '\n';
  if (!m.still_violates) return false;
  const std::string out = a.str("out", a.positional[0] + ".min");
  fuzz::save_trace(m.trace, out);
  std::cout << "  wrote " << out << '\n';
  return true;
}

void report_sweep(const sweep::SweepStats& stats, std::size_t threads,
                  const MemBudget& mem, bool measured) {
  std::cerr << "sweep: " << stats.cells << " cells (" << stats.rows
            << " rows, " << stats.skipped << " skipped) in " << stats.seconds
            << "s (" << stats.cells_per_sec << " cells/s, " << threads
            << " threads, mem " << mem.to_string() << ")\n";
  if (measured) {
    std::cerr << "memo: " << stats.memo_hits << " hits, "
              << stats.memo_misses << " misses, " << stats.memo_bytes
              << " bytes\n";
  }
}

bool cmd_sweep(const Args& a) {
  sweep::SweepOptions opt;
  if (a.has("grid")) opt.grid = sweep::GridSpec::parse(a.flags.at("grid"));
  opt.measure = a.has("measure");
  opt.threads = threads_flag(a);
  opt.mem = mem_flag(a);

  sweep::MultiSink sinks;
  std::ofstream csv_file, json_file;
  sweep::CsvSink csv_stdout(std::cout);
  std::optional<sweep::CsvSink> csv_sink;
  std::optional<sweep::JsonSink> json_sink;
  const std::string csv_path = a.str("csv", "-");
  if (csv_path == "-") {
    sinks.add(&csv_stdout);
  } else {
    csv_file.open(csv_path);
    MEMU_CHECK_MSG(csv_file.good(), "cannot open --csv " << csv_path);
    csv_sink.emplace(csv_file);
    sinks.add(&*csv_sink);
  }
  if (a.has("json")) {
    const std::string json_path = a.flags.at("json");
    json_file.open(json_path);
    MEMU_CHECK_MSG(json_file.good(), "cannot open --json " << json_path);
    json_sink.emplace(json_file);
    sinks.add(&*json_sink);
  }

  const sweep::SweepStats stats = sweep::run_sweep(opt, sinks);
  report_sweep(stats, opt.threads, opt.mem, opt.measure);
  return true;
}

bool cmd_fig1(const Args& a) {
  sweep::Fig1Options opt;
  opt.out_dir = a.str("out-dir", "bench/fig1");
  opt.threads = threads_flag(a);
  opt.mem = mem_flag(a);
  const sweep::Fig1Result r = sweep::write_figure1(opt);
  std::cerr << "wrote " << r.csv_path << " and " << r.gp_path << '\n';
  report_sweep(r.stats, opt.threads, opt.mem, /*measured=*/true);
  return true;
}

struct Command {
  std::string_view name;  // "fuzz run" is typed as two words
  std::size_t min_args;   // positional arguments after the name
  std::size_t max_args;
  std::vector<std::string_view> switches;
  std::vector<std::string_view> values;
  std::string_view usage;  // what follows "memu <name>"
  bool (*run)(const Args&);  // true: passed; false: negative verdict
};

const Command kCommands[] = {
    {"bounds", 2, 3, {}, {}, " <N> <f> [nu_max]", cmd_bounds},
    {"run", 1, 1, {"reorder", "witness"},
     {"n", "f", "k", "writers", "readers", "ops-per-client", "value-bytes",
      "seed", "crash", "delta"},
     " <algo> [--n N] [--f F] [--k K] [--writers W] [--readers R]\n"
     "         [--delta D] [--ops-per-client Q] [--value-bytes B] [--seed S]\n"
     "         [--reorder] [--witness] [--crash i,j,...]",
     cmd_run},
    {"verify", 2, 2, {}, {"domain", "nu"},
     " <b1|41|51> <algo> [--domain M]\n"
     "       memu verify 65 <algo> [--nu V] [--domain M]",
     cmd_verify},
    {"explore", 1, 1, {"reorder", "reduce", "sleep-sets", "symmetry"},
     {"n", "max-states", "mem"},
     " <algo> [--n N] [--reorder] [--reduce|--sleep-sets|--symmetry]\n"
     "         [--max-states N] [--mem BUDGET]",
     cmd_explore},
    {"fuzz run", 0, 0, {"no-minimize", "expect-violations"},
     {"algo", "seed", "walks", "max-steps", "writes", "reads", "check", "n",
      "f", "k", "writers", "readers", "value-bytes", "mix", "threads", "mem",
      "out-dir"},
     " [--algo A[,B,...]] [--seed S] [--walks W] [--max-steps M]\n"
     "         [--writes Q] [--reads Q]"
     " [--check atomic|regular-swsr|weakly-regular]\n"
     "         [--n N] [--f F] [--k K] [--writers W] [--readers R]"
     " [--value-bytes B]\n"
     "         [--mix standard|crashes] [--threads T] [--mem BUDGET]"
     " [--no-minimize]\n"
     "         [--out-dir DIR] [--expect-violations]",
     cmd_fuzz_run},
    {"fuzz replay", 1, 1, {}, {}, " <trace.json>", cmd_fuzz_replay},
    {"fuzz shrink", 1, 1, {}, {"out", "threads", "mem"},
     " <trace.json> [--out FILE] [--threads T] [--mem BUDGET]",
     cmd_fuzz_shrink},
    {"sweep", 0, 0, {"measure"}, {"grid", "threads", "mem", "csv", "json"},
     " [--grid N=3:21:2,f=1:10,nu=1:20,logV=1:50] [--measure]\n"
     "         [--threads T] [--mem BUDGET] [--csv FILE] [--json FILE]",
     cmd_sweep},
    {"fig1", 0, 0, {}, {"out-dir", "threads", "mem"},
     " [--out-dir DIR] [--threads T] [--mem BUDGET]", cmd_fig1},
};

void print_usage(const Command* only) {
  const char* lead = "usage: ";
  for (const Command& c : kCommands) {
    if (only != nullptr && &c != only) continue;
    std::cerr << lead << "memu " << c.name << c.usage << '\n';
    lead = "       ";
  }
  if (only != nullptr) return;
  std::cerr
      << "algos: " << algo::family_names() << '\n'
      << "--threads defaults to the hardware concurrency (capped at 8) and\n"
      << "--mem BUDGET (<bytes|512M|4G>) to unbudgeted; fuzz, sweep and fig1\n"
      << "output is byte-identical for any value of either. Exit codes:\n"
      << "0 passed, 1 negative verdict, 2 no verdict (usage or input error,\n"
      << "exhausted --mem budget).\n";
}

// How many words of the command line spell `c.name` ("fuzz run" takes two).
int name_words(const Command& c) {
  return c.name.find(' ') == std::string_view::npos ? 1 : 2;
}

const Command* find_command(int argc, char** argv) {
  for (const Command& c : kCommands) {
    const int words = name_words(c);
    if (argc <= words) continue;
    std::string typed = argv[1];
    if (words == 2) typed = typed + ' ' + argv[2];
    if (typed == c.name) return &c;
  }
  return nullptr;
}

}  // namespace

int main(int argc, char** argv) {
  const Command* cmd = find_command(argc, argv);
  if (cmd == nullptr) {
    if (argc > 1) {
      std::cerr << "memu: unknown subcommand '" << argv[1];
      if (argc > 2 && std::string_view(argv[1]) == "fuzz")
        std::cerr << ' ' << argv[2];
      std::cerr << "'\n";
    }
    print_usage(nullptr);
    return kNoVerdict;
  }
  try {
    const int words = name_words(*cmd);
    const Args a =
        cli::parse(argc - words, argv + words, cmd->switches, cmd->values);
    if (a.positional.size() < cmd->min_args ||
        a.positional.size() > cmd->max_args) {
      std::cerr << "memu " << cmd->name << ": wrong number of arguments ("
                << a.positional.size() << ")\n";
      print_usage(cmd);
      return kNoVerdict;
    }
    return cmd->run(a) ? kPassed : kNegative;
  } catch (const std::exception& e) {
    std::cerr << "memu " << cmd->name << ": " << error_message(e) << '\n';
    return kNoVerdict;
  }
}

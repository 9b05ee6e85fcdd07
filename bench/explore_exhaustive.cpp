// Exhaustive interleaving exploration of small configurations: upgrades the
// seed-sweep evidence ("no violation in 20 random schedules") to a proof
// over ALL per-channel-FIFO schedules for small systems.
//
// Verifies, for every reachable state / terminal state:
//   * ABD (write-back reads): atomicity of every terminal history, liveness
//     (quiescence implies responses), and unreachability of the new-old
//     inversion state;
//   * ABD (one-phase regular reads): the inversion state IS reachable —
//     the explorer exhibits the counterexample;
//   * CAS: atomicity of every terminal history at N=3, f=1;
//   * storage invariant: ABD servers never exceed one value (B bits) at any
//     reachable state — the replication cost is exact, not just typical.
#include <sys/resource.h>

#include <chrono>
#include <cstdlib>
#include <iostream>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "algo/abd/system.h"
#include "algo/cas/system.h"
#include "bench_json.h"
#include "common/arena.h"
#include "common/env.h"
#include "common/table.h"
#include "consistency/checker.h"
#include "engine/frontier.h"
#include "sim/cow_stats.h"

namespace {

using namespace memu;

constexpr std::size_t kValueBytes = 12;

// State-budget override for CI smoke runs: MEMU_EXPLORE_MAX_STATES caps the
// expensive explorations so a Release bench-smoke job finishes in seconds.
// Unset (the default) runs the full spaces the committed baselines record.
std::size_t env_max_states(std::size_t def) {
  return env::u64_or(env::kExploreMaxStates, def);
}

// Budget for the --mem engine run: `--mem <bytes|512M|4G>` on the command
// line, MEMU_MEM_BUDGET in the environment, else 64 MiB — deliberately
// below the ~115 MB the unbudgeted exact-mode visited set measures on the
// full CAS space, so the budgeted run is evidence the contract holds where
// the old engine could not fit.
MemBudget g_mem_budget{64ull << 20};

void report(const std::string& name, const ExploreResult& r,
            bool expect_violation = false) {
  std::cout << "  " << name << ": states=" << r.states_visited
            << " terminals=" << r.terminal_states
            << " transitions=" << r.transitions << " merged=" << r.deduped
            << " complete=" << (r.complete ? "yes" : "NO");
  if (expect_violation) {
    std::cout << "  -> counterexample "
              << (!r.ok ? "FOUND (" + std::to_string(r.violation_path.size()) +
                              " deliveries): " + r.violation
                        : "MISSING (unexpected)");
  } else {
    std::cout << "  -> " << (r.ok ? "VERIFIED" : "VIOLATION: " + r.violation);
  }
  std::cout << '\n';
}

// Enumerate the TRUE reachable per-server state sets over all values and
// all schedules of a tiny configuration — the |S_i| of the theorems,
// measured rather than bounded. The paper's Theorem B.1 requires
// sum_i log2|S_i| >= log2|V| over any N - f live servers; exploration shows
// how much slack real protocols leave.
void state_space_census() {
  constexpr std::size_t kDomain = 4;  // |V|
  constexpr std::size_t kValueBytes = 12;

  std::map<std::uint32_t, std::set<Bytes>> reachable;  // server -> states
  std::size_t total_states = 0;

  for (std::size_t v = 1; v <= kDomain; ++v) {
    abd::Options opt;
    opt.n_servers = 3;
    opt.f = 1;
    opt.single_writer = true;
    opt.value_size = kValueBytes;
    abd::System sys = abd::make_system(opt);
    sys.world.crash(sys.servers[2]);  // the proofs' failed f-subset
    sys.world.invoke(sys.writers[0],
                     {OpType::kWrite, enum_value(v, kValueBytes)});

    const auto res = engine::frontier_search(
        sys.world, ExploreOptions{},
        [&](const World& w) -> std::optional<std::string> {
          for (const NodeId s : sys.servers) {
            if (w.is_crashed(s)) continue;
            reachable[s.value].insert(w.process(s).encode_state());
          }
          return std::nullopt;
        },
        {});
    total_states += res.states_visited;
  }

  double sum_log2 = 0;
  std::cout << "  ABD N=3 f=1, |V|=" << kDomain
            << ", all schedules of one write: per-live-server reachable "
               "states:";
  for (const auto& [server, states] : reachable) {
    std::cout << ' ' << states.size();
    sum_log2 += std::log2(static_cast<double>(states.size()));
  }
  std::cout << "\n    sum_i log2|S_i| = " << sum_log2
            << " >= log2|V| = " << std::log2(double(kDomain))
            << " (Theorem B.1)  [" << total_states
            << " world states explored]\n";
}

void abd_exhaustive() {
  const Value v0 = enum_value(0, kValueBytes);
  abd::Options opt;
  opt.n_servers = 3;
  opt.f = 1;
  opt.single_writer = true;
  opt.value_size = kValueBytes;
  abd::System sys = abd::make_system(opt);
  sys.world.invoke(sys.writers[0],
                   {OpType::kWrite, unique_value(1, 1, kValueBytes)});
  sys.world.invoke(sys.readers[0], {OpType::kRead, {}});

  const double B = 8.0 * kValueBytes;
  const auto res = engine::frontier_search(
      sys.world, ExploreOptions{},
      [&](const World& w) -> std::optional<std::string> {
        // Replication storage is exactly one value per server, always.
        for (const NodeId s : sys.servers) {
          if (w.is_crashed(s)) continue;
          if (w.process(s).state_size().value_bits != B)
            return "server stores more than one value";
        }
        return std::nullopt;
      },
      [&](const World& w) -> std::optional<std::string> {
        if (w.oplog().responses_since(0) < 2) return "operation stuck";
        const auto verdict = check_atomic(History::from_oplog(w.oplog()), v0);
        if (!verdict.ok) return verdict.violation;
        return std::nullopt;
      });
  report("ABD  N=3 f=1, write || read, atomic + storage==N*B", res);
}

// Set by abd_inversion(): whether the DPOR+symmetry-reduced exploration of
// the one-phase-regular-reads configuration still exhibits the pinned
// new-old inversion violation. The reductions must preserve the verdict —
// a reduced run that misses this counterexample is unsound, and the bench
// regression gate hard-fails on it.
bool g_pinned_violation_under_reduction = false;

void abd_inversion() {
  const Value v1 = unique_value(1, 1, kValueBytes);
  auto run_one = [&](bool write_back, bool reduce = false) {
    abd::Options opt;
    opt.n_servers = 3;
    opt.f = 1;
    opt.single_writer = true;
    opt.read_write_back = write_back;
    opt.value_size = kValueBytes;
    abd::System sys = abd::make_system(opt);
    sys.world.invoke(sys.writers[0], {OpType::kWrite, v1});
    sys.world.invoke(sys.readers[0], {OpType::kRead, {}});
    ExploreOptions eopt;
    eopt.reduction.sleep_sets = reduce;
    eopt.reduction.symmetry = reduce;
    return engine::frontier_search(
        sys.world, eopt,
        [&sys, v1](const World& w) -> std::optional<std::string> {
          bool saw_new = false;
          w.oplog().for_each([&](const OpEvent& e) {
            if (e.kind == OpEvent::Kind::kResponse &&
                e.type == OpType::kRead && e.value == v1)
              saw_new = true;
          });
          if (!saw_new) return std::nullopt;
          std::size_t stale = 0;
          for (const NodeId s : sys.servers)
            if (dynamic_cast<const abd::Server&>(w.process(s)).tag() ==
                Tag::initial())
              ++stale;
          if (stale >= 2) return "new-old inversion state reached";
          return std::nullopt;
        },
        {});
  };
  report("ABD  one-phase reads: inversion reachable?", run_one(false),
         /*expect_violation=*/true);
  report("ABD  write-back reads: inversion unreachable", run_one(true));
  const auto reduced = run_one(false, /*reduce=*/true);
  g_pinned_violation_under_reduction =
      !reduced.ok && reduced.violation.find("new-old inversion state "
                                            "reached") != std::string::npos;
  report("ABD  one-phase reads, DPOR+symmetry: inversion still found?",
         reduced, /*expect_violation=*/true);
}

void cas_exhaustive() {
  const Value v0 = enum_value(0, kValueBytes);
  cas::Options opt;
  opt.n_servers = 3;
  opt.f = 1;
  opt.k = 1;
  opt.value_size = kValueBytes;
  opt.n_writers = 1;
  cas::System sys = cas::make_system(opt);
  sys.world.invoke(sys.writers[0],
                   {OpType::kWrite, unique_value(1, 1, kValueBytes)});
  sys.world.invoke(sys.readers[0], {OpType::kRead, {}});

  ExploreOptions eopt;
  eopt.max_states = env_max_states(2'000'000);
  const auto res = engine::frontier_search(
      sys.world, eopt, {},
      [&](const World& w) -> std::optional<std::string> {
        if (w.oplog().responses_since(0) < 2) return "operation stuck";
        const auto verdict = check_atomic(History::from_oplog(w.oplog()), v0);
        if (!verdict.ok) return verdict.violation;
        return std::nullopt;
      });
  report("CAS  N=3 f=1 k=1, write || read, atomic + live", res);
}

// Engine benchmark: the same CAS configuration explored sequentially and
// with 8 worker threads, plus fingerprint-vs-exact visited-set memory.
// Results land in BENCH_explore_exhaustive.json so CI can track them.
World cas_bench_world(std::size_t n_servers = 3) {
  cas::Options opt;
  opt.n_servers = n_servers;
  opt.f = 1;
  opt.k = 1;
  opt.value_size = kValueBytes;
  opt.n_writers = 1;
  cas::System sys = cas::make_system(opt);
  sys.world.invoke(sys.writers[0],
                   {OpType::kWrite, unique_value(1, 1, kValueBytes)});
  sys.world.invoke(sys.readers[0], {OpType::kRead, {}});
  return std::move(sys.world);
}

// Peak RSS proxy (kilobytes on Linux); coarse but enough to catch a
// regression that re-inflates frontier memory.
long peak_rss_kb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss;
}

struct TimedExplore {
  ExploreResult result;
  double seconds = 0;
  cowstats::Snapshot cow;          // copy/detach traffic during the run
  std::size_t state_bytes = 0;     // canonical encoding length of the root
};

TimedExplore timed_explore(const ExploreOptions& opt,
                           std::size_t n_servers = 3) {
  const World w = cas_bench_world(n_servers);
  TimedExplore out;
  out.state_bytes = w.canonical_encoding().size();
  const cowstats::Snapshot before = cowstats::snapshot();
  const auto t0 = std::chrono::steady_clock::now();
  out.result = engine::frontier_search(w, opt, {}, {});
  out.seconds = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
  out.cow = cowstats::snapshot() - before;
  return out;
}

void engine_benchmark() {
  ExploreOptions base;
  base.max_states = env_max_states(2'000'000);

  ExploreOptions seq = base;
  ExploreOptions par = base;
  par.threads = 8;
  ExploreOptions exact = base;
  exact.exact_dedupe = true;

  // --mem contract evidence: the same space (a) under the hard g_mem_budget
  // cap — visited set fitted to half of it up front, frontier share derived
  // — and (b) under a deliberately tiny explicit frontier share that forces
  // spill/reload cycles through the temp file. Both must reproduce the
  // unbudgeted counters byte-for-byte.
  ExploreOptions mem = base;
  mem.mem = g_mem_budget;
  ExploreOptions spill = base;
  spill.frontier_budget_bytes = 16ull << 10;

  // Partial-order reduction (sleep sets + server symmetry): the same space
  // reduced, and — the headline pair — the non-FIFO (reorder) space full vs
  // reduced. The reorder space is the one the reductions exist for: it is
  // ~23x the FIFO space and crosses the old 2M-state practicality line.
  ExploreOptions red = base;
  red.reduction.sleep_sets = true;
  red.reduction.symmetry = true;
  ExploreOptions full_ro = base;
  full_ro.reorder = true;
  full_ro.max_states = env_max_states(4'000'000);
  ExploreOptions red_ro = full_ro;
  red_ro.reduction.sleep_sets = true;
  red_ro.reduction.symmetry = true;

  const TimedExplore s = timed_explore(seq);
  const TimedExplore p = timed_explore(par);
  const TimedExplore e = timed_explore(exact);
  const TimedExplore m = timed_explore(mem);
  const TimedExplore sp = timed_explore(spill);
  const TimedExplore r = timed_explore(red);
  const TimedExplore fro = timed_explore(full_ro);
  const TimedExplore rro = timed_explore(red_ro);

  // A configuration strictly larger than every committed baseline space
  // (CAS N=4: ~16x the N=3 FIFO space), explored exhaustively under the
  // hard --mem budget WITH reduction — the paper-scale configs the
  // reductions newly reach — plus the unreduced run for the honest ratio.
  ExploreOptions n4_full = base;
  ExploreOptions n4_red_mem = red;
  n4_red_mem.mem = g_mem_budget;
  const TimedExplore n4f = timed_explore(n4_full, /*n_servers=*/4);
  const TimedExplore n4r = timed_explore(n4_red_mem, /*n_servers=*/4);

  // Work-stealing scaling curve: the same space at 1/2/4/8 workers (the 1-
  // and 8-thread points reuse the runs above). How far the curve climbs is
  // bounded by the host's core count, recorded alongside.
  std::vector<std::pair<std::size_t, const TimedExplore*>> scaling;
  ExploreOptions two = base;
  two.threads = 2;
  ExploreOptions four = base;
  four.threads = 4;
  const TimedExplore t2 = timed_explore(two);
  const TimedExplore t4 = timed_explore(four);
  scaling = {{1, &s}, {2, &t2}, {4, &t4}, {8, &p}};

  const auto sem_match = [&s](const TimedExplore& t) {
    return s.result.states_visited == t.result.states_visited &&
           s.result.terminal_states == t.result.terminal_states &&
           s.result.ok == t.result.ok &&
           s.result.transitions == t.result.transitions &&
           s.result.deduped == t.result.deduped &&
           s.result.complete == t.result.complete;
  };
  const bool counts_match = sem_match(p);
  const bool budget_counts_match = sem_match(m) && sem_match(sp);
  const double speedup = p.seconds > 0 ? s.seconds / p.seconds : 0;

  // Reduction ratios and verdict agreement. The ratios are only meaningful
  // when both sides covered their full space (a smoke run truncates both at
  // the same cap and the ratio degenerates to ~1), so the completeness
  // flags ride along for the regression gate.
  const auto ratio = [](const TimedExplore& full, const TimedExplore& redu) {
    return redu.result.states_visited > 0
               ? static_cast<double>(full.result.states_visited) /
                     static_cast<double>(redu.result.states_visited)
               : 0;
  };
  const double fifo_reduction_x = ratio(s, r);
  const double reorder_reduction_x = ratio(fro, rro);
  const double n4_reduction_x = ratio(n4f, n4r);
  const bool reduction_verdicts_match =
      s.result.ok == r.result.ok && fro.result.ok == rro.result.ok &&
      n4f.result.ok == n4r.result.ok;
  // Both operands are VisitedSet::memory_bytes() of their own mode: the
  // ratio compares the exact-mode footprint against the fingerprint-mode
  // footprint for the same state space (same dedupe_entries).
  const double exact_over_fp =
      s.result.dedupe_bytes > 0
          ? static_cast<double>(e.result.dedupe_bytes) /
                static_cast<double>(s.result.dedupe_bytes)
          : 0;
  const unsigned cores = std::thread::hardware_concurrency();

  // Copy-cost evidence: a non-COW World copy materializes the entire state
  // (~the canonical encoding length) on every fork; COW materializes only
  // the detached blocks. bytes/state is the measure the refactor shrinks.
  const auto per_state = [](const TimedExplore& t) {
    return t.result.states_visited > 0
               ? static_cast<double>(t.cow.bytes_copied) /
                     static_cast<double>(t.result.states_visited)
               : 0;
  };
  const double deep_copy_bytes_per_state =
      s.result.states_visited > 0
          ? static_cast<double>(s.cow.world_copies) *
                static_cast<double>(s.state_bytes) /
                static_cast<double>(s.result.states_visited)
          : 0;
  const double copy_reduction =
      per_state(s) > 0 ? deep_copy_bytes_per_state / per_state(s) : 0;

  std::cout << "  CAS N=3 f=1 (states=" << s.result.states_visited << "):\n"
            << "    sequential: " << s.seconds << " s, 8 threads: "
            << p.seconds << " s  -> speedup " << speedup << "x on " << cores
            << " core(s)\n"
            << "    parallel counters "
            << (counts_match ? "IDENTICAL to sequential" : "MISMATCH") << '\n'
            << "    visited-set memory: fingerprint=" << s.result.dedupe_bytes
            << " B, exact=" << e.result.dedupe_bytes << " B  -> "
            << exact_over_fp << "x smaller\n"
            << "    COW copies: " << s.cow.world_copies << " world copies, "
            << s.cow.detaches() << " detaches, " << per_state(s)
            << " bytes copied/state (process=" << s.cow.process_bytes_copied
            << " B, queue=" << s.cow.queue_bytes_copied
            << " B; deep-copy equivalent " << deep_copy_bytes_per_state
            << " -> " << copy_reduction << "x less)\n"
            << "    --mem " << g_mem_budget.to_string()
            << ": visited=" << m.result.dedupe_bytes
            << " B, frontier peak=" << m.result.frontier_bytes
            << " B, counters "
            << (sem_match(m) ? "IDENTICAL to unbudgeted" : "MISMATCH") << '\n'
            << "    spill (16K frontier share): " << sp.result.spill_batches
            << " batches / " << sp.result.spilled_nodes
            << " nodes through disk, counters "
            << (sem_match(sp) ? "IDENTICAL to unbudgeted" : "MISMATCH")
            << '\n'
            << "    DPOR+symmetry (FIFO): " << r.result.states_visited
            << " states (" << fifo_reduction_x << "x fewer), sleep_blocked="
            << r.result.sleep_blocked << " symmetry_merged="
            << r.result.symmetry_merged << '\n'
            << "    DPOR+symmetry (reorder): " << rro.result.states_visited
            << " vs full " << fro.result.states_visited << " ("
            << reorder_reduction_x << "x fewer), verdicts "
            << (fro.result.ok == rro.result.ok ? "MATCH" : "DIVERGED") << '\n'
            << "    CAS N=4 reduced under --mem " << g_mem_budget.to_string()
            << ": " << n4r.result.states_visited << " states, complete="
            << (n4r.result.complete ? "yes" : "NO") << " (full space "
            << n4f.result.states_visited << ", " << n4_reduction_x
            << "x fewer)\n"
            << "    pinned abd-regular inversion under reduction: "
            << (g_pinned_violation_under_reduction ? "FOUND" : "MISSING")
            << '\n';

  auto run_json = [&per_state](const char* mode,
                               const TimedExplore& t) -> benchjson::Json {
    return benchjson::Json::object()
        .set("mode", mode)
        .set("seconds", t.seconds)
        .set("states_visited", t.result.states_visited)
        .set("states_per_sec",
             t.seconds > 0
                 ? static_cast<double>(t.result.states_visited) / t.seconds
                 : 0)
        .set("terminal_states", t.result.terminal_states)
        .set("transitions", t.result.transitions)
        .set("deduped", t.result.deduped)
        .set("ok", t.result.ok)
        .set("complete", t.result.complete)
        // dedupe_bytes is in the units of THIS run's dedupe_mode; never
        // compare it across records with different modes. "symmetry" keys
        // on the orbit-canonical fingerprint — the relabeled state-hash
        // fold, which serializes no World, so the zero-encodings invariant
        // holds for it exactly as for "fingerprint".
        .set("dedupe_mode", t.result.exact_dedupe
                                ? "exact"
                                : (t.result.symmetry_applied ? "symmetry"
                                                             : "fingerprint"))
        .set("dedupe_entries", t.result.dedupe_entries)
        .set("dedupe_bytes", t.result.dedupe_bytes)
        // Memory-contract telemetry: exact allocated visited-set bytes
        // (same number dedupe_bytes now reports — kept under the name the
        // --mem gates use), the peak accounted in-memory frontier bytes,
        // and the disk-spill volume a frontier budget produced.
        .set("visited_bytes", t.result.dedupe_bytes)
        .set("frontier_bytes", t.result.frontier_bytes)
        .set("spill_batches", t.result.spill_batches)
        .set("spilled_nodes", t.result.spilled_nodes)
        // Exploration-accounting telemetry: paths cut by max_depth (any
        // nonzero means complete=false), reduction counters, and the
        // replay work behind frontier-node reconstitution.
        .set("depth_cut", t.result.depth_cut)
        .set("truncated", t.result.truncated)
        .set("sleep_blocked", t.result.sleep_blocked)
        .set("symmetry_merged", t.result.symmetry_merged)
        .set("symmetry_applied", t.result.symmetry_applied)
        .set("replay_steps", t.result.replay_steps)
        // Work-stealing telemetry (0 on sequential runs): batch steals and
        // the tasks they moved; the quotient is the realized steal-unit
        // size (engine/thread_pool.h).
        .set("steal_batches", t.result.steal_batches)
        .set("tasks_stolen", t.result.tasks_stolen)
        .set("world_copies", t.cow.world_copies)
        .set("cow_detaches", t.cow.detaches())
        .set("cow_bytes_copied", t.cow.bytes_copied)
        .set("cow_process_bytes_copied", t.cow.process_bytes_copied)
        .set("cow_queue_bytes_copied", t.cow.queue_bytes_copied)
        .set("cow_bytes_per_state", per_state(t))
        // Full serializations during the run: 0 in fingerprint mode (the
        // incremental state hash replaces the per-node re-encode), one per
        // popped node in exact mode.
        .set("canonical_encodings", t.cow.canonical_encodings);
  };
  benchjson::Json scaling_json = benchjson::Json::array();
  for (const auto& [threads, t] : scaling) {
    scaling_json.push(
        benchjson::Json::object()
            .set("threads", threads)
            .set("seconds", t->seconds)
            .set("states_per_sec",
                 t->seconds > 0 ? static_cast<double>(
                                      t->result.states_visited) /
                                      t->seconds
                                : 0)
            .set("speedup_x", t->seconds > 0 ? s.seconds / t->seconds : 0)
            .set("steal_batches", t->result.steal_batches)
            .set("tasks_stolen", t->result.tasks_stolen));
    std::cout << "    scaling: threads=" << threads << " " << t->seconds
              << " s, "
              << (t->seconds > 0
                      ? static_cast<double>(t->result.states_visited) /
                            t->seconds
                      : 0)
              << " states/s\n";
  }
  benchjson::Json root = benchjson::Json::object();
  root.set("bench", "explore_exhaustive")
      .set("config", "cas_n3_f1_k1_write_read")
      .set("hardware_concurrency", cores)
      // Alias the scaling gate keys on: tools/check_bench_regression.py
      // reads `cores` to decide whether multi-thread speedups are
      // meaningful on this machine (see the 1-core skip notice there).
      .set("cores", cores)
      // World slab-pool footprint (common/arena.h): bytes of slab pages
      // carved for process blocks, channel slots, and oplog chunks across
      // the whole process so far. Pages recycle through pool freelists and
      // are never returned, so this is the high-water mark the --mem
      // backstop in main() gates.
      .set("slab_bytes_reserved", worldmem::reserved_bytes())
      .set("runs", benchjson::Json::array()
                       .push(run_json("sequential_fingerprint", s))
                       .push(run_json("parallel8_fingerprint", p))
                       .push(run_json("sequential_exact", e))
                       .push(run_json("sequential_fingerprint_mem", m))
                       .push(run_json("sequential_spill16k", sp))
                       .push(run_json("sequential_reduced", r))
                       .push(run_json("sequential_reorder_full", fro))
                       .push(run_json("sequential_reorder_reduced", rro))
                       .push(run_json("cas_n4_full", n4f))
                       .push(run_json("cas_n4_reduced_mem", n4r)))
      .set("scaling", scaling_json)
      .set("parallel_counters_match_sequential", counts_match)
      .set("mem_budget", g_mem_budget.to_string())
      .set("budgeted_counters_match_sequential", budget_counts_match)
      // Partial-order-reduction gate record: ratios are gated only when
      // both sides are complete (smoke caps truncate both to the same
      // size); the verdict agreement and the pinned abd-regular inversion
      // are hard invariants at ANY cap.
      .set("reduction",
           benchjson::Json::object()
               .set("fifo_full_states", s.result.states_visited)
               .set("fifo_reduced_states", r.result.states_visited)
               .set("fifo_reduction_x", fifo_reduction_x)
               .set("reorder_full_states", fro.result.states_visited)
               .set("reorder_reduced_states", rro.result.states_visited)
               .set("reorder_reduction_x", reorder_reduction_x)
               .set("reorder_both_complete",
                    fro.result.complete && rro.result.complete)
               .set("n4_full_states", n4f.result.states_visited)
               .set("n4_reduced_states", n4r.result.states_visited)
               .set("n4_reduction_x", n4_reduction_x)
               .set("n4_both_complete",
                    n4f.result.complete && n4r.result.complete)
               .set("n4_reduced_complete_under_mem", n4r.result.complete)
               .set("verdict_match", reduction_verdicts_match)
               .set("symmetry_applied", rro.result.symmetry_applied)
               .set("sleep_blocked", rro.result.sleep_blocked)
               .set("symmetry_merged", rro.result.symmetry_merged)
               .set("pinned_violation_found",
                    g_pinned_violation_under_reduction))
      .set("parallel_speedup_x", speedup)
      .set("exact_over_fingerprint_dedupe_bytes_x", exact_over_fp)
      .set("state_encoding_bytes", s.state_bytes)
      .set("deep_copy_bytes_per_state", deep_copy_bytes_per_state)
      .set("cow_copy_reduction_x", copy_reduction)
      .set("peak_rss_kb", static_cast<std::uint64_t>(peak_rss_kb()));
  benchjson::write("explore_exhaustive", root);
}

}  // namespace

int main(int argc, char** argv) {
  // Budget precedence (common/env.h flag-wins rule): the explicit flag
  // beats MEMU_MEM_BUDGET beats the 64 MiB default.
  std::optional<std::string> mem_flag;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--mem" && i + 1 < argc) {
      mem_flag = argv[++i];
    } else {
      std::cerr << "usage: explore_exhaustive [--mem <bytes|512M|4G>]\n";
      return 2;
    }
  }
  g_mem_budget = env::mem_budget_or(mem_flag, g_mem_budget);
  const bool mem_explicit =
      mem_flag.has_value() || env::raw(env::kMemBudget).has_value();
  // An explicitly requested budget also caps the World slab pools
  // (process blocks, channel slots, oplog chunks — the "COW snapshot
  // slack" the --mem split leaves unmetered): exhausting it CHECK-fails
  // with a diagnostic naming the slab pool instead of silently growing
  // past the cap. The 64 MiB default stays a per-run exploration budget
  // only — this process runs unbudgeted configurations too.
  if (mem_explicit) worldmem::set_limit(g_mem_budget.total);
  std::cout << "=== Exhaustive interleaving exploration (all FIFO "
               "schedules, canonical-state dedup) ===\n\n";
  abd_exhaustive();
  abd_inversion();
  cas_exhaustive();
  std::cout << "\n--- State-space census (the theorems' |S_i|, measured) "
               "---\n";
  state_space_census();
  std::cout << "\n--- Engine benchmark (sequential vs parallel, fingerprint "
               "vs exact dedupe) ---\n";
  engine_benchmark();
  std::cout << "\nEvery 'VERIFIED' line quantifies over the FULL schedule "
               "space of the configuration, not a sample; 'counterexample "
               "FOUND' exhibits the regular-vs-atomic gap automatically.\n";
  return 0;
}

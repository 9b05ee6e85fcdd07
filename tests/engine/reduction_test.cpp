// Differential equivalence of the partial-order reductions: DPOR sleep
// sets and server-symmetry merging must preserve the ok/violation verdict
// and the reachable terminal-state set against full exploration — across
// algorithms (ABD, ABD one-phase-regular, CAS, LDR), FIFO and reorder
// branching, and budgeted and unbudgeted runs. Terminal states are compared as exact ORBIT-KEY sets
// (minimum relabeled-encoding fingerprint over every within-role server
// permutation): symmetry merges mirror-image terminals, so the reduced
// set must equal the full set folded onto orbit representatives.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <numeric>
#include <set>
#include <string>
#include <vector>

#include "adversary/sut.h"
#include "algo/abd/client.h"
#include "algo/abd/system.h"
#include "common/hash.h"
#include "algo/cas/system.h"
#include "algo/ldr/ldr.h"
#include "engine/frontier.h"
#include "engine/scheduler.h"
#include "sim/symmetry.h"
#include "sim/world.h"

namespace memu {
namespace {

World abd_world(bool write_back = true) {
  abd::Options opt;
  opt.n_servers = 3;
  opt.f = 1;
  opt.single_writer = true;
  opt.read_write_back = write_back;
  opt.value_size = 12;
  abd::System sys = abd::make_system(opt);
  sys.world.invoke(sys.writers[0], {OpType::kWrite, unique_value(1, 1, 12)});
  sys.world.invoke(sys.readers[0], {OpType::kRead, {}});
  return std::move(sys.world);
}

World cas_world() {
  cas::Options opt;
  opt.n_servers = 3;
  opt.f = 1;
  opt.k = 1;
  opt.n_writers = 1;
  opt.value_size = 12;
  cas::System sys = cas::make_system(opt);
  sys.world.invoke(sys.writers[0], {OpType::kWrite, unique_value(1, 1, 12)});
  sys.world.invoke(sys.readers[0], {OpType::kRead, {}});
  return std::move(sys.world);
}

World ldr_world() {
  ldr::Options opt;
  // Small enough for exhaustive FULL exploration: the default n=5/f=2
  // space blows past any reasonable cap without the reductions.
  opt.n_servers = 3;
  opt.f = 1;
  ldr::System sys = ldr::make_system(opt);
  sys.world.invoke(sys.writers[0], {OpType::kWrite, unique_value(1, 1, 12)});
  return std::move(sys.world);
}

// Exact orbit key for a state: the minimum encoding fingerprint over ALL
// within-role-group server permutations. symmetry::canonical_fingerprint
// would NOT do here — its signature tie-break may under-merge (two
// mirror-image states keeping distinct canonical keys), which is fine for
// the explorer (it only costs merge rate) but would make this test's
// full-run fold disagree with the reduced run's representative choice.
// Enumerating the whole orbit (3! = 6 maps for these worlds) removes the
// tie sensitivity: equal orbits get equal minima, certified by the full
// relabeled encoding.
class OrbitKey {
 public:
  explicit OrbitKey(const World& root) {
    std::map<std::string, std::vector<std::uint32_t>> groups;
    for (std::uint32_t i = 0; i < root.process_count(); ++i) {
      const Process& p = root.process(NodeId(i));
      if (p.is_server()) groups[p.name()].push_back(i);
    }
    // Cartesian product of per-group permutations, each expressed as a
    // full id map (identity outside the group).
    std::vector<std::uint32_t> base(root.process_count());
    std::iota(base.begin(), base.end(), 0);
    maps_.push_back(base);
    for (auto& [name, ids] : groups) {
      std::vector<std::uint32_t> perm = ids;
      std::vector<std::vector<std::uint32_t>> expanded;
      std::sort(perm.begin(), perm.end());
      do {
        for (const auto& m : maps_) {
          auto next = m;
          for (std::size_t i = 0; i < ids.size(); ++i)
            next[ids[i]] = m[perm[i]];
          expanded.push_back(std::move(next));
        }
      } while (std::next_permutation(perm.begin(), perm.end()));
      maps_ = std::move(expanded);
    }
  }

  std::uint64_t operator()(const World& state) const {
    std::uint64_t best = ~0ull;
    Bytes buf;
    for (const auto& m : maps_) {
      state.encode_canonical_relabeled(m, buf);
      best = std::min(best, fingerprint64(buf));
    }
    return best;
  }

 private:
  std::vector<std::vector<std::uint32_t>> maps_;
};

// Explore `w` and collect the set of terminal states, keyed by the exact
// orbit key when the world is symmetry-eligible (so a full run's
// mirror-image terminals fold onto the reduced run's representative) and
// the plain state hash otherwise.
struct TerminalSet {
  ExploreResult result;
  std::set<std::uint64_t> terminals;
};

TerminalSet explore_terminals(const World& w, const ExploreOptions& opt) {
  TerminalSet out;
  const bool canonical = symmetry::eligible(w);
  const OrbitKey orbit(w);
  out.result = engine::frontier_search(
      w, opt, {}, [&](const World& state) -> std::optional<std::string> {
        const std::uint64_t key = canonical ? orbit(state) : state.state_hash();
        out.terminals.insert(key);
        return std::nullopt;
      });
  return out;
}

ExploreOptions reduced(ExploreOptions opt = {}) {
  opt.reduction.sleep_sets = true;
  opt.reduction.symmetry = true;
  return opt;
}

void expect_equivalent(const TerminalSet& full, const TerminalSet& redu) {
  ASSERT_TRUE(full.result.complete);
  ASSERT_TRUE(redu.result.complete);
  EXPECT_EQ(full.result.ok, redu.result.ok);
  EXPECT_EQ(full.terminals, redu.terminals);
  // The reduction must not have INCREASED the work.
  EXPECT_LE(redu.result.states_visited, full.result.states_visited);
  EXPECT_LE(redu.result.transitions, full.result.transitions);
}

TEST(Reduction, AbdFifoVerdictAndTerminalSetMatch) {
  const World w = abd_world();
  expect_equivalent(explore_terminals(w, {}),
                    explore_terminals(w, reduced()));
}

TEST(Reduction, AbdReorderVerdictAndTerminalSetMatch) {
  const World w = abd_world();
  ExploreOptions full;
  full.reorder = true;
  const auto f = explore_terminals(w, full);
  const auto r = explore_terminals(w, reduced(full));
  expect_equivalent(f, r);
  // The reorder space is where the reduction pays: require a real cut,
  // not a degenerate pass-through.
  EXPECT_LT(r.result.states_visited * 4, f.result.states_visited);
  EXPECT_TRUE(r.result.symmetry_applied);
  EXPECT_GT(r.result.sleep_blocked, 0u);
}

TEST(Reduction, CasFifoVerdictAndTerminalSetMatch) {
  const World w = cas_world();
  const auto f = explore_terminals(w, {});
  const auto r = explore_terminals(w, reduced());
  expect_equivalent(f, r);
  EXPECT_TRUE(r.result.symmetry_applied);
}

// Sequential sleep-set + symmetry counters, pinned. Under symmetry the
// counters depend on which states the canonical key merges; how the key is
// computed (relabeled encoding bytes or a relabeled state-hash fold) must
// never move them.
void expect_counters(const ExploreResult& r, std::size_t states,
                     std::size_t terminals, std::size_t transitions,
                     std::size_t deduped) {
  ASSERT_TRUE(r.ok);
  ASSERT_TRUE(r.complete);
  EXPECT_TRUE(r.symmetry_applied);
  EXPECT_EQ(r.states_visited, states);
  EXPECT_EQ(r.terminal_states, terminals);
  EXPECT_EQ(r.transitions, transitions);
  EXPECT_EQ(r.deduped, deduped);
}

TEST(Reduction, CasFifoReducedCountersArePinned) {
  expect_counters(engine::frontier_search(cas_world(), reduced(), {}, {}),
                  18'345, 12, 40'542, 22'198);
}

TEST(Reduction, AbdReorderReducedCountersArePinned) {
  ExploreOptions opt = reduced();
  opt.reorder = true;
  expect_counters(engine::frontier_search(abd_world(), opt, {}, {}), 3'489,
                  12, 8'413, 4'925);
}

TEST(Reduction, LdrIsSymmetryIneligibleButSleepSetsStillExact) {
  // LDR processes keep the conservative symmetry opt-out, so a reduced
  // run must record symmetry_applied=false and fall back to plain-hash
  // dedupe — while sleep sets alone still preserve the terminal set.
  const World w = ldr_world();
  ExploreOptions full;
  full.max_states = 200'000;
  const auto f = explore_terminals(w, full);
  const auto r = explore_terminals(w, reduced(full));
  EXPECT_FALSE(r.result.symmetry_applied);
  EXPECT_EQ(r.result.symmetry_merged, 0u);
  expect_equivalent(f, r);
  // Sleep sets never change WHICH states are visited, only how many
  // transitions re-derive them.
  EXPECT_EQ(f.result.states_visited, r.result.states_visited);
}

TEST(Reduction, AbdRegularInversionStillFoundUnderReduction) {
  // The pinned counterexample: one-phase regular reads reach the new-old
  // inversion state (a read returned the new value while a majority of
  // servers still hold the initial tag). A reduction that prunes it away
  // would be unsound — and the check itself is symmetric under server
  // relabeling (it counts stale servers, never names one).
  const Value v1 = unique_value(1, 1, 12);
  abd::Options opt;
  opt.n_servers = 3;
  opt.f = 1;
  opt.single_writer = true;
  opt.read_write_back = false;
  opt.value_size = 12;
  abd::System sys = abd::make_system(opt);
  sys.world.invoke(sys.writers[0], {OpType::kWrite, v1});
  sys.world.invoke(sys.readers[0], {OpType::kRead, {}});
  const auto check =
      [&sys, v1](const World& state) -> std::optional<std::string> {
    bool saw_new = false;
    state.oplog().for_each([&](const OpEvent& e) {
      if (e.kind == OpEvent::Kind::kResponse && e.type == OpType::kRead &&
          e.value == v1)
        saw_new = true;
    });
    if (!saw_new) return std::nullopt;
    std::size_t stale = 0;
    for (const NodeId s : sys.servers) {
      if (dynamic_cast<const abd::Server&>(state.process(s)).tag() ==
          Tag::initial())
        ++stale;
    }
    if (stale >= 2) return "new-old inversion state reached";
    return std::nullopt;
  };
  const auto f = engine::frontier_search(sys.world, {}, check, {});
  const auto r = engine::frontier_search(sys.world, reduced(), check, {});
  EXPECT_FALSE(f.ok);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(f.violation, r.violation);
}

TEST(Reduction, SleepSetsAloneKeepTheVisitedStateSetIdentical) {
  // Sleep sets prune redundant INTERLEAVINGS, not states: states_visited,
  // terminal_states, and the terminal set are identical to the full run;
  // only transitions (and deduped) shrink.
  const World w = abd_world();
  ExploreOptions full;
  full.reorder = true;
  ExploreOptions sleep_only = full;
  sleep_only.reduction.sleep_sets = true;
  const auto f = explore_terminals(w, full);
  const auto s = explore_terminals(w, sleep_only);
  EXPECT_EQ(f.result.states_visited, s.result.states_visited);
  EXPECT_EQ(f.result.terminal_states, s.result.terminal_states);
  EXPECT_EQ(f.terminals, s.terminals);
  EXPECT_LT(s.result.transitions, f.result.transitions);
  EXPECT_GT(s.result.sleep_blocked, 0u);
  // Accounting identity holds with blocked children never emitted.
  EXPECT_EQ(s.result.transitions, (s.result.states_visited - 1) +
                                      s.result.deduped + s.result.truncated);
}

// The exact-valency probe's search (adversary::probe_read_all_values),
// run with sleep sets on or off: the writer frozen, a read invoked, every
// delivery schedule explored in exact mode, and each state where the read
// has responded a leaf whose value is collected.
struct LeafValues {
  std::set<Value> values;
  ExploreResult result;
};

LeafValues read_leaf_values(const adversary::Sut& sut, bool sleep_sets) {
  World w = sut.world;
  w.freeze(sut.writer);
  const std::size_t base = w.oplog().size();
  w.invoke(sut.reader, {OpType::kRead, {}});
  ExploreOptions opt;
  opt.reorder = true;
  opt.exact_dedupe = true;
  opt.reduction.sleep_sets = sleep_sets;
  LeafValues out;
  out.result = engine::frontier_search(w, opt, {}, {}, [&](const World& x) {
    const OpLog& log = x.oplog();
    for (std::size_t i = base; i < log.size(); ++i) {
      if (log[i].kind == OpEvent::Kind::kResponse &&
          log[i].type == OpType::kRead) {
        out.values.insert(log[i].value);
        return true;
      }
    }
    return false;
  });
  return out;
}

TEST(Reduction, SleepSetsKeepLeafValues) {
  // A read response is a leaf that stays true, with the same value, under
  // every step commuting with the delivery that produced it — so sleep
  // sets keep the collected value set (engine/frontier.h). Checked at two
  // bivalent points, where either value is reachable.
  // ABD N=5 f=1, the store delivered to exactly one server (the point of
  // ExactValency.PartialWriteCanBeBivalent).
  adversary::Sut abd_point = adversary::abd_sut_factory(5, 1, 12)();
  const Value v1 = enum_value(1, 12);
  abd_point.world.invoke(abd_point.writer, {OpType::kWrite, v1});
  const auto& writer = dynamic_cast<const abd::Writer&>(
      abd_point.world.process(abd_point.writer));
  Scheduler abd_sched;
  ASSERT_TRUE(abd_sched.run_until(
      abd_point.world,
      [&](const World&) { return writer.phase() == abd::Writer::Phase::kStore; },
      100000));
  abd_point.world.deliver({abd_point.writer, abd_point.servers[0]});

  // CAS N=4 f=1 k=2, 17 round-robin deliveries into a second write.
  adversary::Sut cas_point =
      adversary::cas_sut_factory(4, 1, 2, 14, std::nullopt)();
  Scheduler cas_sched;
  cas_point.world.invoke(cas_point.writer,
                         {OpType::kWrite, enum_value(1, 14)});
  ASSERT_TRUE(cas_sched.run_until_responses(cas_point.world, 1, 100000));
  ASSERT_TRUE(cas_sched.drain(cas_point.world, 100000));
  cas_point.world.invoke(cas_point.writer,
                         {OpType::kWrite, enum_value(2, 14)});
  for (int i = 0; i < 17; ++i) ASSERT_TRUE(cas_sched.step(cas_point.world));

  for (const adversary::Sut* point : {&abd_point, &cas_point}) {
    const LeafValues plain = read_leaf_values(*point, false);
    const LeafValues sleep = read_leaf_values(*point, true);
    ASSERT_TRUE(plain.result.complete);
    ASSERT_TRUE(sleep.result.complete);
    EXPECT_EQ(plain.values.size(), 2u);
    EXPECT_EQ(sleep.values, plain.values);
    EXPECT_LE(sleep.result.transitions, plain.result.transitions);
  }
}

TEST(Reduction, BudgetedReducedMatchesUnbudgeted) {
  // The --mem contract composes with the reductions: a budget the reduced
  // space fits reproduces the reduced run's semantic counters exactly.
  const World w = abd_world();
  ExploreOptions unbudgeted = reduced();
  unbudgeted.reorder = true;
  ExploreOptions budgeted = unbudgeted;
  budgeted.mem = MemBudget::parse("64M");
  const auto u = explore_terminals(w, unbudgeted);
  const auto b = explore_terminals(w, budgeted);
  ASSERT_TRUE(b.result.complete);
  EXPECT_EQ(u.result.states_visited, b.result.states_visited);
  EXPECT_EQ(u.result.terminal_states, b.result.terminal_states);
  EXPECT_EQ(u.result.transitions, b.result.transitions);
  EXPECT_EQ(u.result.deduped, b.result.deduped);
  EXPECT_EQ(u.result.sleep_blocked, b.result.sleep_blocked);
  EXPECT_EQ(u.result.ok, b.result.ok);
  EXPECT_EQ(u.terminals, b.terminals);
  EXPECT_LE(b.result.frontier_bytes, budgeted.mem.total / 8);
  // The plain-hash side table behind symmetry_merged is unmetered, so a
  // budgeted run drops it and reports zero.
  EXPECT_GT(u.result.symmetry_merged, 0u);
  EXPECT_EQ(b.result.symmetry_merged, 0u);
}

}  // namespace
}  // namespace memu

// Engine-level frontier search: accounting identities, max_states
// truncation semantics, cycle merging, and sequential/parallel and
// fingerprint/exact agreement.
#include "engine/frontier.h"

#include <gtest/gtest.h>

#include "algo/abd/system.h"
#include "sim/cow_stats.h"

namespace memu {
namespace {

struct Mark final : MessagePayload {
  std::uint64_t id;
  explicit Mark(std::uint64_t i) : id(i) {}
  std::string type_name() const override { return "test.mark"; }
  StateBits size_bits() const override { return {0, 64}; }
  void encode_content(BufWriter& w) const override { w.u64(id); }
};

class MarkSink final : public CloneableProcess<MarkSink> {
 public:
  void on_message(Context&, NodeId, const MessagePayload& msg) override {
    received_ |= 1ull << dynamic_cast<const Mark&>(msg).id;
  }
  StateBits state_size() const override { return {0, 64}; }
  Bytes encode_state() const override {
    BufWriter w;
    w.u64(received_);
    return std::move(w).take();
  }
  std::string name() const override { return "test.mark_sink"; }
  bool is_server() const override { return true; }

 private:
  std::uint64_t received_ = 0;
};

// Stateless echo: every delivery re-sends the same payload back, so the
// reachable graph is a 2-cycle the visited set must close.
class Reflector final : public CloneableProcess<Reflector> {
 public:
  void on_message(Context& ctx, NodeId from,
                  const MessagePayload& msg) override {
    ctx.send(from, make_msg<Mark>(dynamic_cast<const Mark&>(msg).id));
  }
  StateBits state_size() const override { return {0, 0}; }
  Bytes encode_state() const override { return {}; }
  std::string name() const override { return "test.reflector"; }
  bool is_server() const override { return true; }
};

// Every popped non-root node is classified exactly once: freshly expanded,
// merged into an already-expanded state, or rejected by max_states. The
// old explorer filed max_states rejections into the visited set, which
// both lost them from the accounting and miscounted later re-encounters
// as merges.
void expect_accounting_identity(const ExploreResult& r) {
  ASSERT_GE(r.states_visited, 1u);
  EXPECT_EQ(r.transitions, (r.states_visited - 1) + r.deduped + r.truncated);
}

TEST(FrontierSearch, CycleMergesIntoVisitedSet) {
  World w;
  const NodeId a = w.add_process(std::make_unique<Reflector>());
  const NodeId b = w.add_process(std::make_unique<Reflector>());
  w.enqueue({a, b}, make_msg<Mark>(0));

  const auto res = engine::frontier_search(w, ExploreOptions{}, {}, {});
  // Ping-pong between a and b: the message's position is the only state.
  EXPECT_TRUE(res.complete);
  EXPECT_TRUE(res.ok);
  EXPECT_EQ(res.states_visited, 2u);
  EXPECT_EQ(res.terminal_states, 0u);  // never quiescent
  EXPECT_EQ(res.transitions, 2u);
  EXPECT_EQ(res.deduped, 1u);  // the step closing the cycle
  EXPECT_EQ(res.truncated, 0u);
  expect_accounting_identity(res);
}

TEST(FrontierSearch, MaxStatesRejectionsAreTruncatedNotDeduped) {
  // Diamond: two independent messages. Cap the search at 2 expanded
  // states: the root and the left branch fit; the bottom state and the
  // right branch are cap-rejected and must surface as `truncated`, NOT as
  // merges (they were never expanded).
  World w;
  const NodeId a = w.add_process(std::make_unique<MarkSink>());
  const NodeId b = w.add_process(std::make_unique<MarkSink>());
  const NodeId c = w.add_process(std::make_unique<MarkSink>());
  w.enqueue({a, b}, make_msg<Mark>(0));
  w.enqueue({a, c}, make_msg<Mark>(1));

  ExploreOptions opt;
  opt.max_states = 2;
  const auto res = engine::frontier_search(w, opt, {}, {});
  EXPECT_FALSE(res.complete);
  EXPECT_EQ(res.states_visited, 2u);
  EXPECT_EQ(res.deduped, 0u);
  EXPECT_EQ(res.truncated, 2u);
  EXPECT_EQ(res.transitions, 3u);
  expect_accounting_identity(res);
}

TEST(FrontierSearch, AccountingIdentityOnAbd) {
  abd::Options opt;
  opt.n_servers = 3;
  opt.f = 1;
  opt.single_writer = true;
  opt.value_size = 12;
  abd::System sys = abd::make_system(opt);
  sys.world.invoke(sys.writers[0],
                   {OpType::kWrite, unique_value(1, 1, opt.value_size)});
  sys.world.invoke(sys.readers[0], {OpType::kRead, {}});

  const auto res = engine::frontier_search(sys.world, ExploreOptions{}, {}, {});
  EXPECT_TRUE(res.complete);
  EXPECT_EQ(res.truncated, 0u);
  expect_accounting_identity(res);
}

ExploreResult explore_abd(const ExploreOptions& opt) {
  abd::Options aopt;
  aopt.n_servers = 3;
  aopt.f = 1;
  aopt.single_writer = true;
  aopt.value_size = 12;
  abd::System sys = abd::make_system(aopt);
  sys.world.invoke(sys.writers[0],
                   {OpType::kWrite, unique_value(1, 1, aopt.value_size)});
  sys.world.invoke(sys.readers[0], {OpType::kRead, {}});
  return engine::frontier_search(sys.world, opt, {}, {});
}

TEST(FrontierSearch, ParallelMatchesSequentialOnAbd) {
  ExploreOptions seq;
  ExploreOptions par;
  par.threads = 8;
  const auto s = explore_abd(seq);
  const auto p = explore_abd(par);
  EXPECT_TRUE(s.complete);
  EXPECT_TRUE(p.complete);
  EXPECT_EQ(s.states_visited, p.states_visited);
  EXPECT_EQ(s.terminal_states, p.terminal_states);
  EXPECT_EQ(s.transitions, p.transitions);
  EXPECT_EQ(s.deduped, p.deduped);
  EXPECT_EQ(s.ok, p.ok);
  expect_accounting_identity(p);
}

TEST(FrontierSearch, ParallelMatchesSequentialInReorderMode) {
  ExploreOptions seq;
  seq.reorder = true;
  ExploreOptions par = seq;
  par.threads = 4;
  const auto s = explore_abd(seq);
  const auto p = explore_abd(par);
  EXPECT_TRUE(s.complete);
  EXPECT_EQ(s.states_visited, p.states_visited);
  EXPECT_EQ(s.terminal_states, p.terminal_states);
  EXPECT_EQ(s.transitions, p.transitions);
  EXPECT_EQ(s.deduped, p.deduped);
}

TEST(FrontierSearch, ExactDedupeMatchesFingerprintAndCostsMore) {
  ExploreOptions fp;
  ExploreOptions exact;
  exact.exact_dedupe = true;
  const auto a = explore_abd(fp);
  const auto b = explore_abd(exact);
  // Same state graph either way (no 64-bit collisions at this scale)...
  EXPECT_EQ(a.states_visited, b.states_visited);
  EXPECT_EQ(a.terminal_states, b.terminal_states);
  EXPECT_EQ(a.deduped, b.deduped);
  // ...but exact mode retains the full encodings. dedupe_bytes is exact
  // allocated memory (open-addressed slot table, 8 B/slot at <= 75% load
  // in fingerprint mode), so it's bounded by the entry count on both
  // sides; exact mode adds refs and the encoding slab on top.
  EXPECT_GE(a.dedupe_bytes, 8 * a.states_visited);
  EXPECT_LE(a.dedupe_bytes, 8 * 4 * a.states_visited);
  EXPECT_GE(b.dedupe_bytes, 5 * a.dedupe_bytes);
}

TEST(FrontierSearch, FingerprintModeNeverCallsCanonicalEncoding) {
  // The point of the incremental state hash: fingerprint-mode exploration
  // performs ZERO full canonical serializations — not one per node, none.
  // Exact mode is the mode that pays for encodings (one per popped node).
  const auto before_fp = cowstats::snapshot();
  const auto a = explore_abd(ExploreOptions{});
  const auto fp_encodings =
      (cowstats::snapshot() - before_fp).canonical_encodings;
  EXPECT_EQ(fp_encodings, 0u);
  ASSERT_GT(a.states_visited, 100u);  // a real search, not a no-op

  ExploreOptions exact;
  exact.exact_dedupe = true;
  const auto before_exact = cowstats::snapshot();
  const auto b = explore_abd(exact);
  const auto exact_encodings =
      (cowstats::snapshot() - before_exact).canonical_encodings;
  EXPECT_GE(exact_encodings, b.states_visited);
}

TEST(FrontierSearch, AccountingIdentityHoldsUnderParallelTruncation) {
  // Truncation under concurrency: workers race the max_states guard, so
  // the exact cut point (and states_visited) may differ run to run — but
  // every popped non-root node must still be classified exactly once, so
  // the identity holds regardless of where the cap lands.
  for (const std::size_t threads : {2u, 4u, 8u}) {
    ExploreOptions opt;
    opt.threads = threads;
    opt.max_states = 50;  // well under the full ABD space
    const auto r = explore_abd(opt);
    EXPECT_FALSE(r.complete) << "threads=" << threads;
    EXPECT_GT(r.truncated, 0u) << "threads=" << threads;
    EXPECT_GE(r.states_visited, opt.max_states) << "threads=" << threads;
    expect_accounting_identity(r);
  }
}

TEST(FrontierSearch, DedupeFieldsReportTheRunsOwnMode) {
  // dedupe_bytes is only meaningful relative to the run's mode; the result
  // must carry the mode and the entry count so consumers (bench JSON)
  // never compare fingerprint bytes against exact bytes.
  ExploreOptions fp;
  ExploreOptions exact;
  exact.exact_dedupe = true;
  const auto a = explore_abd(fp);
  const auto b = explore_abd(exact);
  EXPECT_FALSE(a.exact_dedupe);
  EXPECT_TRUE(b.exact_dedupe);
  EXPECT_EQ(a.dedupe_entries, a.states_visited);
  EXPECT_EQ(b.dedupe_entries, b.states_visited);
  EXPECT_GE(a.dedupe_bytes, 8 * a.dedupe_entries);
  EXPECT_GT(b.dedupe_bytes, 8 * b.dedupe_entries);

  // Dedupe off: no visited set, so no entries and no bytes.
  World w;
  const NodeId x = w.add_process(std::make_unique<MarkSink>());
  const NodeId y = w.add_process(std::make_unique<MarkSink>());
  w.enqueue({x, y}, make_msg<Mark>(0));
  ExploreOptions off;
  off.dedupe = false;
  const auto c = engine::frontier_search(w, off, {}, {});
  EXPECT_EQ(c.dedupe_entries, 0u);
  EXPECT_EQ(c.dedupe_bytes, 0u);
}

TEST(FrontierSearch, ParallelFindsTheSameInvariantViolation) {
  // Both modes must report a violation (parallel may find a different
  // witness, but ok/violation_path replayability hold in both).
  auto run = [](std::size_t threads) {
    World w;
    const NodeId a = w.add_process(std::make_unique<MarkSink>());
    const NodeId b = w.add_process(std::make_unique<MarkSink>());
    w.enqueue({a, b}, make_msg<Mark>(0));
    w.enqueue({a, b}, make_msg<Mark>(1));
    ExploreOptions opt;
    opt.threads = threads;
    return engine::frontier_search(
        w, opt,
        [](const World& world) -> std::optional<std::string> {
          if (world.in_flight() == 0) return "drained";
          return std::nullopt;
        },
        {});
  };
  const auto s = run(1);
  const auto p = run(4);
  EXPECT_FALSE(s.ok);
  EXPECT_FALSE(p.ok);
  EXPECT_EQ(s.violation_path.size(), 2u);
  EXPECT_EQ(p.violation_path.size(), 2u);
}

// ---- memory budget + spill ------------------------------------------------

void expect_same_semantics(const ExploreResult& a, const ExploreResult& b) {
  EXPECT_EQ(a.states_visited, b.states_visited);
  EXPECT_EQ(a.terminal_states, b.terminal_states);
  EXPECT_EQ(a.transitions, b.transitions);
  EXPECT_EQ(a.deduped, b.deduped);
  EXPECT_EQ(a.truncated, b.truncated);
  EXPECT_EQ(a.complete, b.complete);
  EXPECT_EQ(a.ok, b.ok);
  EXPECT_EQ(a.violation, b.violation);
  EXPECT_EQ(a.violation_path.size(), b.violation_path.size());
  for (std::size_t i = 0; i < a.violation_path.size(); ++i) {
    EXPECT_EQ(a.violation_path[i].chan.src.value,
              b.violation_path[i].chan.src.value);
    EXPECT_EQ(a.violation_path[i].chan.dst.value,
              b.violation_path[i].chan.dst.value);
    EXPECT_EQ(a.violation_path[i].index, b.violation_path[i].index);
  }
}

TEST(FrontierSearch, SpillingFrontierIsByteIdenticalToUnbudgeted) {
  // The central --mem contract: a frontier budget tight enough to force
  // repeated spill/reload cycles must leave EVERY semantic field — all
  // counters, completion, ok, and the violation path — byte-identical to
  // the unbudgeted run. Only the telemetry (frontier_bytes, spill stats)
  // may differ.
  const auto base = explore_abd(ExploreOptions{});
  ASSERT_TRUE(base.complete);
  ASSERT_EQ(base.spill_batches, 0u);

  ExploreOptions tight;
  tight.frontier_budget_bytes = 4096;  // far below the ~100 KB peak
  const auto spilled = explore_abd(tight);
  EXPECT_GT(spilled.spill_batches, 0u);
  EXPECT_GT(spilled.spilled_nodes, 0u);
  expect_same_semantics(base, spilled);
}

TEST(FrontierSearch, SpillKeepsTheViolationPathIdentical) {
  // First-violation identity under spilling: sequential DFS order is the
  // contract, so the budgeted run must find the SAME first violation.
  auto run = [](std::size_t frontier_budget) {
    ExploreOptions opt;
    opt.frontier_budget_bytes = frontier_budget;
    abd::Options aopt;
    aopt.n_servers = 3;
    aopt.f = 1;
    aopt.single_writer = true;
    aopt.value_size = 12;
    abd::System sys = abd::make_system(aopt);
    sys.world.invoke(sys.writers[0],
                     {OpType::kWrite, unique_value(1, 1, aopt.value_size)});
    sys.world.invoke(sys.readers[0], {OpType::kRead, {}});
    std::size_t countdown = 500;
    return engine::frontier_search(
        sys.world, opt,
        [&countdown](const World&) -> std::optional<std::string> {
          if (countdown-- == 0) return "synthetic violation";
          return std::nullopt;
        },
        {});
  };
  const auto base = run(0);
  const auto spilled = run(2048);
  ASSERT_FALSE(base.ok);
  EXPECT_GT(spilled.spill_batches, 0u);
  expect_same_semantics(base, spilled);
}

TEST(FrontierSearch, ParallelSpillMatchesSequentialCounters) {
  // Parallel + budget: spilled batches move between workers like steals,
  // so the thread-count-independent counter guarantees must survive a
  // budget that forces heavy spilling.
  const auto base = explore_abd(ExploreOptions{});
  ExploreOptions par;
  par.threads = 4;
  par.frontier_budget_bytes = 4096;
  const auto p = explore_abd(par);
  EXPECT_GT(p.spill_batches, 0u);
  EXPECT_EQ(base.states_visited, p.states_visited);
  EXPECT_EQ(base.terminal_states, p.terminal_states);
  EXPECT_EQ(base.transitions, p.transitions);
  EXPECT_EQ(base.deduped, p.deduped);
  EXPECT_EQ(base.complete, p.complete);
  EXPECT_EQ(base.ok, p.ok);
}

TEST(FrontierSearch, MemBudgetDerivesSharesAndCompletesIdentically) {
  // A generous --mem passes through MemBudget: visited gets half, the
  // frontier an eighth, and a space that fits completes byte-identically
  // with zero spills.
  const auto base = explore_abd(ExploreOptions{});
  ExploreOptions budgeted;
  budgeted.mem = MemBudget::parse("64M");
  const auto b = explore_abd(budgeted);
  expect_same_semantics(base, b);
  EXPECT_EQ(b.spill_batches, 0u);
  // And the exact visited accounting is what the budget was debited by.
  EXPECT_GT(b.dedupe_bytes, 0u);
  EXPECT_LE(b.dedupe_bytes, budgeted.mem.total / 2);
}

TEST(FrontierSearch, DepthLimitCutsAreCountedAndUnsetComplete) {
  // The depth-limit bugfix: paths cut by max_depth used to vanish
  // silently — a depth-limited run looked complete and 'VERIFIED' while
  // having checked only a truncated cone. Every cut must be counted in
  // depth_cut and any nonzero count must force complete=false.
  ExploreOptions shallow;
  shallow.max_depth = 4;  // far below the ~40-step ABD write||read paths
  const auto r = explore_abd(shallow);
  EXPECT_GT(r.depth_cut, 0u);
  EXPECT_FALSE(r.complete);

  // A bound the space fits under cuts nothing and stays complete.
  const auto full = explore_abd(ExploreOptions{});
  EXPECT_EQ(full.depth_cut, 0u);
  EXPECT_TRUE(full.complete);
}

TEST(FrontierSearch, DepthCutSurvivesParallelAndBudgetedRuns) {
  for (const auto& [threads, budget] : {std::pair<std::size_t, std::size_t>{
                                            4, 0},
                                        {1, 4096}}) {
    ExploreOptions opt;
    opt.max_depth = 4;
    opt.threads = threads;
    opt.frontier_budget_bytes = budget;
    const auto r = explore_abd(opt);
    EXPECT_GT(r.depth_cut, 0u) << threads << "/" << budget;
    EXPECT_FALSE(r.complete) << threads << "/" << budget;
  }
}

TEST(FrontierSearch, SpilledNodesReplayFromASharedBaseNotFromRoot) {
  // A pop copies its parent's World and delivers one step, so an
  // unbudgeted run replays exactly one step per transition. Spilling adds
  // only the per-batch prefix replay on reload: one copy of the root per
  // batch, plus the prefix its nodes share — never a per-node replay of
  // the whole path from the root.
  const auto run = [](const ExploreOptions& opt, std::uint64_t& copies) {
    const auto before = cowstats::snapshot();
    const auto r = explore_abd(opt);
    copies = (cowstats::snapshot() - before).world_copies;
    return r;
  };
  // This space's deepest path is 18 deliveries (the smallest max_depth
  // that completes), so every spilled prefix is at most 17 steps.
  constexpr std::size_t kDepth = 18;
  ExploreOptions unbudgeted;
  unbudgeted.max_depth = kDepth;
  std::uint64_t unbudgeted_copies = 0;
  const auto u = run(unbudgeted, unbudgeted_copies);
  ASSERT_TRUE(u.complete);
  EXPECT_EQ(u.replay_steps, u.transitions);

  ExploreOptions spilled = unbudgeted;
  spilled.frontier_budget_bytes = 2048;  // forces heavy spill/reload cycling
  std::uint64_t spilled_copies = 0;
  const auto r = run(spilled, spilled_copies);
  ASSERT_GT(r.spill_batches, 0u);
  expect_same_semantics(u, r);
  // Every extra World copy is one reloaded batch's fresh parent, and every
  // extra replayed step belongs to the prefix of such a batch.
  const std::uint64_t reloads = spilled_copies - unbudgeted_copies;
  const std::size_t prefix_steps = r.replay_steps - r.transitions;
  EXPECT_GT(reloads, 0u);
  EXPECT_LE(reloads, r.spill_batches);
  EXPECT_GE(prefix_steps, reloads);
  EXPECT_LE(prefix_steps, reloads * (kDepth - 1));
}

TEST(FrontierSearch, InsufficientVisitedBudgetFailsLoudly) {
  // The ABD space needs thousands of fingerprint slots; a 4 KB visited
  // budget cannot hold them and must CHECK-fail with a --mem sizing hint
  // rather than degrade or grow.
  ExploreOptions opt;
  opt.visited_budget_bytes = 4096;
  try {
    explore_abd(opt);
    FAIL() << "expected the visited-set load limit to throw";
  } catch (const ContractError& e) {
    EXPECT_NE(std::string(e.what()).find("--mem"), std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace memu

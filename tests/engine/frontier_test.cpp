// Engine-level frontier search: accounting identities, max_states
// truncation semantics, cycle merging, and sequential/parallel and
// fingerprint/exact agreement.
#include "engine/frontier.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <regex>
#include <string>

#include "algo/abd/system.h"
#include "algo/cas/system.h"
#include "sim/cow_stats.h"

namespace memu {
namespace {

struct Mark final : Payload<0, "test.mark"> {
  std::uint64_t id;
  explicit Mark(std::uint64_t i) : id(i) {}
  StateBits size_bits() const override { return {0, 64}; }
  void encode_content(BufWriter& w) const override { w.u64(id); }
};

class MarkSink final : public CloneableProcess<MarkSink> {
 public:
  void on_message(Context&, NodeId, const MessagePayload& msg) override {
    received_ |= 1ull << dynamic_cast<const Mark&>(msg).id;
  }
  StateBits state_size() const override { return {0, 64}; }
  void write_state(BufWriter& w, const NodeRelabeling&) const override {
    w.u64(received_);
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
  void write_state(BufWriter&, const NodeRelabeling&) const override {}
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

TEST(FrontierSearch, LeafStatesAreAdmittedNotExpanded) {
  // Diamond: two independent messages, to b and to c. The leaf is "b has
  // its message": the left branch and the quiescent bottom. Both are
  // admitted and counted; the left branch's step to the bottom is never
  // generated (the bottom is reached once, from the right branch, so
  // nothing merges); the bottom is neither terminal nor checked.
  World w;
  const NodeId a = w.add_process(std::make_unique<MarkSink>());
  const NodeId b = w.add_process(std::make_unique<MarkSink>());
  const NodeId c = w.add_process(std::make_unique<MarkSink>());
  w.enqueue({a, b}, make_msg<Mark>(0));
  w.enqueue({a, c}, make_msg<Mark>(1));

  std::size_t leaves = 0;
  const LeafCheck leaf = [&](const World& x) {
    const std::vector<ChannelId> chans = x.deliverable_channels();
    const bool is_leaf =
        std::find(chans.begin(), chans.end(), ChannelId{a, b}) == chans.end();
    leaves += is_leaf ? 1 : 0;
    return is_leaf;
  };
  std::size_t terminal_calls = 0;
  const StateCheck terminal = [&](const World&) -> std::optional<std::string> {
    ++terminal_calls;
    return std::nullopt;
  };

  const auto plain = engine::frontier_search(w, ExploreOptions{}, {}, terminal);
  EXPECT_EQ(plain.states_visited, 4u);
  EXPECT_EQ(plain.terminal_states, 1u);
  EXPECT_EQ(plain.transitions, 4u);
  EXPECT_EQ(plain.deduped, 1u);
  EXPECT_EQ(terminal_calls, 1u);

  terminal_calls = 0;
  const auto res =
      engine::frontier_search(w, ExploreOptions{}, {}, terminal, leaf);
  EXPECT_TRUE(res.complete);
  EXPECT_TRUE(res.ok);
  EXPECT_EQ(res.states_visited, 4u);
  EXPECT_EQ(res.dedupe_entries, 4u);
  EXPECT_EQ(leaves, 2u);
  EXPECT_EQ(res.terminal_states, 0u);
  EXPECT_EQ(terminal_calls, 0u);
  EXPECT_EQ(res.transitions, 3u);
  EXPECT_EQ(res.deduped, 0u);
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
  // Every non-root pop delivers exactly its own step.
  EXPECT_EQ(res.replay_steps, res.transitions);
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

// CAS N=3 write || read, the space `memu explore cas` checks.
ExploreResult explore_cas(const ExploreOptions& opt) {
  cas::Options copt;
  copt.n_servers = 3;
  copt.f = 1;
  copt.k = 1;
  copt.n_writers = 1;
  copt.value_size = 12;
  cas::System sys = cas::make_system(copt);
  sys.world.invoke(sys.writers[0], {OpType::kWrite, unique_value(1, 1, 12)});
  sys.world.invoke(sys.readers[0], {OpType::kRead, {}});
  return engine::frontier_search(sys.world, opt, {}, {});
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

TEST(FrontierSearch, ExactDedupeMatchesFingerprintOnCas) {
  // The explore-cas space (CAS N=3 k=1, write || read): the 64-bit state
  // fingerprint merges exactly the states the full canonical encodings
  // merge, so both modes pin the same counters.
  ExploreOptions exact;
  exact.exact_dedupe = true;
  for (const ExploreOptions& opt : {ExploreOptions{}, exact}) {
    const cowstats::Snapshot before = cowstats::snapshot();
    const auto r = explore_cas(opt);
    const cowstats::Snapshot cow = cowstats::snapshot() - before;
    EXPECT_TRUE(r.ok && r.complete);
    EXPECT_EQ(r.exact_dedupe, opt.exact_dedupe);
    EXPECT_EQ(r.states_visited, 103147u);
    EXPECT_EQ(r.terminal_states, 24u);
    EXPECT_EQ(r.transitions, 511863u);
    EXPECT_EQ(r.deduped, 408717u);
    // World forks share every block a step leaves alone: the detaches
    // copy 151.5 bytes per visited state, a few percent of one state's
    // encoding.
    EXPECT_LE(static_cast<double>(cow.bytes_copied) /
                  static_cast<double>(r.states_visited),
              200.0);
    // The frontier holds compressed nodes: 4,560 bytes at its peak.
    EXPECT_LE(r.frontier_bytes, 8u << 10);
    // The fingerprint table: 2^18 slots of 8 bytes at <= 75% load. Exact
    // mode keeps every encoding: 104,139,353 bytes.
    if (!opt.exact_dedupe) {
      EXPECT_EQ(r.dedupe_bytes, 2u << 20);
    } else {
      EXPECT_LE(r.dedupe_bytes, 128u << 20);
    }
  }
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
}

TEST(FrontierSearch, InvariantViolationPathReachesTheViolatingState) {
  // The invariant fails only once both messages are delivered, so the
  // reported path is exactly those two deliveries.
  World w;
  const NodeId a = w.add_process(std::make_unique<MarkSink>());
  const NodeId b = w.add_process(std::make_unique<MarkSink>());
  w.enqueue({a, b}, make_msg<Mark>(0));
  w.enqueue({a, b}, make_msg<Mark>(1));
  const auto r = engine::frontier_search(
      w, ExploreOptions{},
      [](const World& world) -> std::optional<std::string> {
        if (world.in_flight() == 0) return "drained";
        return std::nullopt;
      },
      {});
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.violation_path.size(), 2u);
}

// ---- memory budget ---------------------------------------------------------

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

TEST(FrontierSearch, MemBudgetDerivesSharesAndCompletesIdentically) {
  // A generous --mem passes through MemBudget: visited gets half, the
  // frontier an eighth, and a space that fits completes byte-identically.
  const auto base = explore_abd(ExploreOptions{});
  ExploreOptions budgeted;
  budgeted.mem = MemBudget::parse("64M");
  const auto b = explore_abd(budgeted);
  expect_same_semantics(base, b);
  // The budget is a ceiling, not an allocation: the visited set and the
  // frontier hold exactly what the unbudgeted run's hold, inside their
  // shares.
  EXPECT_GT(b.dedupe_bytes, 0u);
  EXPECT_EQ(b.dedupe_bytes, base.dedupe_bytes);
  EXPECT_LE(b.dedupe_bytes, budgeted.mem.total / 2);
  EXPECT_GT(b.frontier_bytes, 0u);
  EXPECT_EQ(b.frontier_bytes, base.frontier_bytes);
  EXPECT_LE(b.frontier_bytes, budgeted.mem.total / 8);
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

TEST(FrontierSearch, DepthCutSurvivesABudgetedRun) {
  ExploreOptions opt;
  opt.max_depth = 4;
  opt.mem = MemBudget::parse("64K");
  const auto r = explore_abd(opt);
  EXPECT_GT(r.depth_cut, 0u);
  EXPECT_FALSE(r.complete);
}

TEST(FrontierSearch, InsufficientVisitedBudgetFailsLoudly) {
  // The ABD space needs thousands of fingerprint slots; the 4 KB visited
  // share of an 8K budget cannot hold them and must CHECK-fail with a
  // --mem sizing hint rather than degrade or grow past it.
  ExploreOptions opt;
  opt.mem = MemBudget::parse("8K");
  try {
    explore_abd(opt);
    FAIL() << "expected the visited-set ceiling to throw";
  } catch (const ContractError& e) {
    EXPECT_NE(std::string(e.what()).find("--mem"), std::string::npos)
        << e.what();
  }
}

TEST(FrontierSearch, VisitedSizingHintGetsPastTheFailingSize) {
  // Following the ceiling's hint from a budget far too small must always
  // make progress: each hint names more than the --mem it was given, and
  // each rerun completes or fails later — at a strictly larger table in
  // fingerprint mode, past strictly more states in exact mode (whose slab
  // can also hit the ceiling). Only exact mode is told to switch modes.
  const std::regex failure(R"((\d+) states fill (\d+) slots)");
  const std::regex hint(R"(--mem >= ([0-9]+[KMG]?))");
  for (const bool exact : {false, true}) {
    ExploreOptions opt;
    opt.exact_dedupe = exact;
    opt.mem = MemBudget::parse("64K");
    std::size_t last_states = 0, last_slots = 0;
    for (int rerun = 0;; ++rerun) {
      ASSERT_LT(rerun, 32) << "hints never reached a fitting budget";
      std::string what;
      try {
        const auto r = explore_abd(opt);
        EXPECT_TRUE(r.complete);
        EXPECT_LE(r.frontier_bytes, opt.mem.total / 8);
        EXPECT_GT(rerun, 0) << "64K should not fit the space";
        break;
      } catch (const ContractError& e) {
        what = e.what();
      }
      std::smatch f, h;
      ASSERT_TRUE(std::regex_search(what, f, failure)) << what;
      ASSERT_TRUE(std::regex_search(what, h, hint)) << what;
      const std::size_t states = std::stoull(f[1]);
      const std::size_t slots = std::stoull(f[2]);
      const MemBudget next = MemBudget::parse(h[1]);
      EXPECT_GT(next.total, opt.mem.total) << what;
      if (exact) {
        EXPECT_GT(states, last_states) << what;
        EXPECT_NE(what.find("fingerprint dedupe"), std::string::npos) << what;
      } else {
        EXPECT_GT(slots, last_slots) << what;
        EXPECT_EQ(what.find("fingerprint dedupe"), std::string::npos) << what;
      }
      last_states = states;
      last_slots = slots;
      opt.mem = next;
    }
  }
}

TEST(FrontierSearch, FrontierSizingHintGetsPastTheFailingSize) {
  // --mem 16K gives the frontier a 2K share, which CAS N=3 passes while
  // expanding its tenth state (42 nodes of 48 B) — long before the visited
  // set's first doubling. The hint names a larger --mem, and following the hints
  // always makes progress: each rerun completes or fails later, at more
  // states. A visited-set failure at N states is later than a frontier
  // failure after N states (it fires admitting state N+1), so failures
  // are ordered by 2 * states, plus one for the visited set.
  const std::regex frontier(R"(frontier at its --mem ceiling after (\d+) states)");
  const std::regex visited(R"(visited set at its --mem ceiling: (\d+) states)");
  const std::regex hint(R"(--mem >= ([0-9]+[KMG]?))");
  ExploreOptions opt;
  opt.mem = MemBudget::parse("16K");
  std::size_t last = 0;
  bool saw_visited = false;
  for (int rerun = 0;; ++rerun) {
    ASSERT_LT(rerun, 32) << "hints never reached a fitting budget";
    std::string what;
    try {
      const auto r = explore_cas(opt);
      EXPECT_TRUE(r.complete);
      EXPECT_EQ(r.states_visited, 103147u);
      EXPECT_LE(r.frontier_bytes, opt.mem.total / 8);
      EXPECT_GT(rerun, 0) << "16K should not fit the space";
      break;
    } catch (const ContractError& e) {
      what = e.what();
    }
    std::smatch f, h;
    const bool at_frontier = std::regex_search(what, f, frontier);
    ASSERT_TRUE(at_frontier || std::regex_search(what, f, visited)) << what;
    ASSERT_TRUE(std::regex_search(what, h, hint)) << what;
    if (rerun == 0) {
      EXPECT_TRUE(at_frontier) << what;
      EXPECT_EQ(f[1], "10") << what;
      EXPECT_EQ(h[1], "33K") << what;
    }
    saw_visited |= !at_frontier;
    const std::size_t when = 2 * std::stoull(f[1]) + (at_frontier ? 0 : 1);
    EXPECT_GT(when, last) << what;
    last = when;
    const MemBudget next = MemBudget::parse(h[1]);
    EXPECT_GT(next.total, opt.mem.total) << what;
    opt.mem = next;
  }
  EXPECT_TRUE(saw_visited) << "the visited set's ceiling never fired";
}

TEST(FrontierSearch, CeilingThrowsAContractErrorWithAHint) {
  // A ceiling hit surfaces as a catchable ContractError naming a --mem to
  // rerun with. 16K trips the frontier share early; 200K gets further
  // before a ceiling fires.
  for (const char* mem : {"16K", "200K"}) {
    ExploreOptions opt;
    opt.mem = MemBudget::parse(mem);
    EXPECT_THROW(explore_cas(opt), ContractError) << mem;
    try {
      explore_cas(opt);
    } catch (const ContractError& e) {
      EXPECT_NE(std::string(e.what()).find("rerun with --mem >= "),
                std::string::npos)
          << e.what();
    }
  }
  // A budget the space fits completes with the unbudgeted counters, each
  // structure inside its share.
  ExploreOptions opt;
  opt.mem = MemBudget::parse("64M");
  const auto p = explore_cas(opt);
  EXPECT_TRUE(p.complete);
  EXPECT_EQ(p.states_visited, 103147u);
  EXPECT_LE(p.dedupe_bytes, opt.mem.total / 2);
  EXPECT_LE(p.frontier_bytes, opt.mem.total / 8);
}

}  // namespace
}  // namespace memu

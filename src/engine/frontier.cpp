#include "engine/frontier.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <mutex>
#include <optional>
#include <utility>

#include "common/check.h"
#include "common/hash.h"
#include "engine/dpor.h"
#include "engine/thread_pool.h"
#include "engine/visited.h"
#include "sim/symmetry.h"

namespace memu::engine {

namespace {

// An expanded state, shared by all of its children: its World and the
// delivery sequence from the initial state to it (the prefix of every
// child's replayable counterexample), stored once here rather than once
// per child. Immutable once published: workers copy the World, never
// mutate it, so sharing one across threads is safe.
struct Parent {
  World world;
  std::vector<ExploreStep> path;
};

// A frontier entry: its parent plus the one step that leads here. The
// node's own World is not stored; popping it assigns the parent's World
// into the worker's scratch World (COW — pointer bumps into warm vectors)
// and delivers `step`. The root is its own parent and delivers nothing.
struct Node {
  std::shared_ptr<const Parent> parent;
  ExploreStep step{{}, kNoIndex};  // kNoIndex: the root
  // Sleep set (engine/dpor.h): steps whose interleavings an earlier
  // sibling branch already covers. Always empty when reduction is off.
  std::vector<ExploreStep> sleep;

  bool is_root() const { return step.index == kNoIndex; }
  std::size_t depth() const {
    return is_root() ? 0 : parent->path.size() + 1;
  }
  // The delivery sequence from the initial state to this node.
  std::vector<ExploreStep> path() const {
    std::vector<ExploreStep> out;
    out.reserve(depth());
    out.insert(out.end(), parent->path.begin(), parent->path.end());
    if (!is_root()) out.push_back(step);
    return out;
  }
};

// One worker's buffers, reused across every node it visits so the visit
// allocates nothing in steady state: the World each node materializes
// into, the steps enumerated from it, the sleep-set accumulator, and the
// children it emits.
struct Scratch {
  World world;
  std::vector<ExploreStep> steps;
  std::vector<ExploreStep> acc;
  std::vector<Node> children;
};

class Search {
 public:
  Search(const ExploreOptions& opt, const StateCheck& invariant,
         const StateCheck& terminal)
      : opt_(opt),
        invariant_(invariant),
        terminal_(terminal),
        visited_({opt.exact_dedupe, auto_shard_count(opt.threads), opt.mem}),
        scratch_(std::max<std::size_t>(opt.threads, 1)) {}

  ExploreResult run(const World& initial) {
    sleep_on_ = opt_.reduction.sleep_sets;
    if (sleep_on_) server_mask_ = dpor::server_mask(initial);
    // Symmetry engages only when the root World is eligible; crashes and
    // blocks during exploration never change eligibility (roles and the
    // process set are fixed), so one root check covers the search.
    symmetry_on_ = opt_.reduction.symmetry && symmetry::eligible(initial);
    if (symmetry_on_) groups_.emplace(initial);
    if (symmetry_on_ && !opt_.mem.bounded()) {
      // Telemetry twin-detector for symmetry_merged: an auxiliary plain-
      // fingerprint set, deliberately NOT maintained under a --mem budget
      // (it is unmetered and would roughly double visited memory).
      plain_seen_ = std::make_unique<VisitedSet>(
          VisitedSet::Options{false, auto_shard_count(opt_.threads)});
    }
    Node root;  // the default step marks the root
    root.parent = std::make_shared<const Parent>(Parent{initial, {}});
    if (opt_.threads <= 1) {
      push_bytes(root);
      frontier_.push_back(std::move(root));
      run_sequential();
    } else {
      run_parallel(std::move(root));
    }

    ExploreResult result;
    result.states_visited = states_visited_.load();
    result.terminal_states = terminal_states_.load();
    result.transitions = transitions_.load();
    result.deduped = deduped_.load();
    result.truncated = truncated_.load();
    result.dedupe_bytes = visited_.memory_bytes();
    result.dedupe_entries = visited_.size();
    result.exact_dedupe = opt_.exact_dedupe;
    result.frontier_bytes = frontier_peak_.load();
    result.depth_cut = depth_cut_.load();
    result.steal_batches = steal_batches_;
    result.tasks_stolen = tasks_stolen_;
    result.sleep_blocked = sleep_blocked_.load();
    result.symmetry_merged = symmetry_merged_.load();
    result.symmetry_applied = symmetry_on_;
    result.replay_steps = result.transitions;
    result.complete = complete_.load() && !aborted_.load();
    {
      std::lock_guard<std::mutex> lock(violation_mu_);
      result.ok = ok_;
      result.violation = violation_;
      result.violation_path = violation_path_;
    }
    return result;
  }

 private:
  // Frontier memory accounting: the node struct plus its sleep-set
  // storage. The parent record (World and path) is shared by all of its
  // children and counts as slack, like the parent World always has.
  // Deliberately based on size(), not capacity(), so the accounting — and
  // therefore where the ceiling fires — is identical across allocators and
  // stdlib growth policies.
  static std::size_t node_bytes(const Node& n) {
    return sizeof(Node) + n.sleep.size() * sizeof(ExploreStep);
  }

  // Under a bounded --mem the frontier may hold an eighth of it; the push
  // that would pass that share CHECK-fails with a sizing hint whose share
  // is twice the bytes the frontier would have held.
  void push_bytes(const Node& n) {
    const std::size_t bytes = node_bytes(n);
    const std::size_t now = frontier_bytes_.fetch_add(bytes) + bytes;
    const std::size_t share = opt_.mem.total / 8;
    MEMU_CHECK_MSG(!opt_.mem.bounded() || now <= share,
                   "frontier at its --mem ceiling after "
                       << states_visited_.load() << " states: a " << bytes
                       << " B node next to the " << now - bytes
                       << " B held passes the " << share
                       << " B frontier share (an eighth) of --mem "
                       << opt_.mem.to_string() << "; rerun with --mem >= "
                       << MemBudget::rounded_up(16 * now).to_string());
    std::size_t peak = frontier_peak_.load();
    while (now > peak && !frontier_peak_.compare_exchange_weak(peak, now)) {
    }
  }

  void pop_bytes(const Node& n) { frontier_bytes_.fetch_sub(node_bytes(n)); }

  // Records the first violation, found at `node`, and aborts the search.
  void record_violation(const std::string& why, const Node& node) {
    std::lock_guard<std::mutex> lock(violation_mu_);
    if (ok_) {
      ok_ = false;
      violation_ = why;
      violation_path_ = node.path();
    }
    aborted_.store(true);
  }

  // Dedupe keys. Default: the state as-is. Under symmetry reduction the
  // key is the World relabeled by the orbit-canonical server permutation,
  // so the whole orbit shares one key and merges into its first-visited
  // member: in fingerprint mode the relabeled World's state hash, folded
  // from the components the World already caches; in exact mode its
  // canonical encoding.
  std::uint64_t dedupe_fingerprint(const World& world) const {
    return symmetry_on_ ? symmetry::canonical_fingerprint(world, *groups_)
                        : world.state_hash();
  }

  void dedupe_key(const World& world, Bytes& buf) const {
    if (symmetry_on_) {
      symmetry::canonical_encoding(world, *groups_, buf);
    } else {
      world.encode_canonical(buf);
    }
  }

  // Classifies `world` against the visited set and the max_states budget.
  // Returns true iff the caller should expand the state (fresh and within
  // budget); otherwise the node has been counted as deduped or truncated.
  // Fingerprint mode keys on World::state_hash() — the incremental hash
  // maintained through every mutation — so NO canonical encoding (and no
  // per-node serialization at all) happens here; under symmetry reduction
  // the key is the relabeled state hash, which re-encodes only the
  // processes whose state names server ids (the clients). Exact mode pays
  // the full encoding, through one recycled thread-local buffer.
  bool admit(const World& world) {
    if (states_visited_.load() >= opt_.max_states) {
      // Expansion budget exhausted: classify WITHOUT inserting — this
      // state is never expanded, so a later re-encounter must not count
      // as a dedupe merge (and could legitimately be expanded by a re-run
      // with a larger budget).
      bool seen;
      if (opt_.exact_dedupe) {
        Bytes& buf = encode_buffer();
        dedupe_key(world, buf);
        seen = visited_.contains(buf);
      } else {
        seen = visited_.contains(dedupe_fingerprint(world));
      }
      if (seen) {
        deduped_.fetch_add(1);
      } else {
        complete_.store(false);
        truncated_.fetch_add(1);
      }
      return false;
    }
    bool fresh;
    if (opt_.exact_dedupe) {
      Bytes& buf = encode_buffer();
      dedupe_key(world, buf);
      fresh = visited_.try_insert(buf);
    } else {
      fresh = visited_.try_insert(dedupe_fingerprint(world));
    }
    if (!fresh) deduped_.fetch_add(1);  // includes losing an insert race
    if (plain_seen_ != nullptr) {
      // symmetry_merged telemetry: a canonical-key hit whose PLAIN
      // fingerprint is new merged a symmetric twin, not a literal revisit.
      const bool plain_fresh = plain_seen_->try_insert(world.state_hash());
      if (!fresh && plain_fresh) symmetry_merged_.fetch_add(1);
    }
    return fresh;
  }

  static Bytes& encode_buffer() {
    // One encode buffer per worker thread, reused across every visited
    // node: exact mode serializes into warm capacity instead of growing a
    // fresh Bytes per state.
    static thread_local Bytes buf;
    return buf;
  }

  // Visits one frontier node: reconstitution, dedupe, bounds, invariant,
  // terminal, and child generation, in the worker's scratch buffers.
  // Children are passed to `emit` in deterministic (channel, index) order;
  // the caller decides where they go.
  template <class Emit>
  void visit(const Node& node, Scratch& scratch, Emit&& emit) {
    // Entry bookkeeping. The recursive DFS incremented `transitions` once
    // per child call; counting at entry (non-root nodes only) yields the
    // same totals in the same order, including under aborts.
    if (!node.is_root()) transitions_.fetch_add(1);

    // Materialize: COW copy of the parent plus its one step, assigned into
    // the scratch World so its vectors keep their capacity. Delivery is
    // deterministic, so this World is state-identical (and canonical-
    // encoding byte-identical) to one built by replaying the whole path.
    World& world = scratch.world;
    world = node.parent->world;
    if (!node.is_root()) world.deliver(node.step.chan, node.step.index);

    if (!admit(world)) return;
    states_visited_.fetch_add(1);

    if (invariant_) {
      if (const auto why = invariant_(world); why.has_value()) {
        record_violation("invariant: " + *why, node);
        return;
      }
    }

    std::vector<ExploreStep>& steps = scratch.steps;
    steps.clear();
    world.for_each_deliverable([&](ChannelId chan, std::size_t first) {
      // FIFO: the first allowed index (may be > 0 under value/bulk
      // blocks). Non-FIFO: branch over every deliverable position.
      // Redundant branches (identical payloads whose deliveries lead to
      // identical states) merge in the visited set — payload-level merging
      // here would be unsound for non-adjacent duplicates, whose remaining
      // queue orders differ.
      if (!opt_.reorder) {
        steps.push_back({chan, first});
        return;
      }
      for (const std::size_t index : world.deliverable_indices(chan))
        steps.push_back({chan, index});
    });
    if (steps.empty()) {
      terminal_states_.fetch_add(1);
      if (terminal_) {
        if (const auto why = terminal_(world); why.has_value())
          record_violation("terminal: " + *why, node);
      }
      return;
    }
    if (node.depth() >= opt_.max_depth) {
      complete_.store(false);
      depth_cut_.fetch_add(1);
      return;
    }

    // This node becomes its children's parent: the root's record is
    // already shared; any other state moves the scratch World into a fresh
    // record with its path, shared by every child.
    const std::shared_ptr<const Parent> parent =
        node.is_root() ? node.parent
                       : std::make_shared<const Parent>(
                             Parent{std::move(world), node.path()});

    // Sleep-set filtering (engine/dpor.h): an enumerated step found in the
    // node's sleep set is skipped — every interleaving it starts is
    // already covered through an earlier sibling of an ancestor. An
    // emitted child sleeps on the surviving inherited entries plus every
    // step emitted BEFORE it in this loop that commutes with its own
    // (dependent steps wake up). A node whose steps are ALL asleep emits
    // nothing and simply retires — it is not terminal (its channels are
    // non-empty), just redundant.
    std::vector<ExploreStep>& acc = scratch.acc;  // inherited + emitted
    if (sleep_on_) acc.assign(node.sleep.begin(), node.sleep.end());
    for (const ExploreStep& step : steps) {
      if (!sleep_on_) {
        emit(Node{parent, step, {}});
        continue;
      }
      if (dpor::sleeps(node.sleep, step)) {
        sleep_blocked_.fetch_add(1);
        continue;
      }
      emit(Node{parent, step, dpor::child_sleep(acc, step, server_mask_)});
      acc.push_back(step);
    }
  }

  // Sequential mode: LIFO frontier, children pushed in reverse generation
  // order, so pops happen in exactly the recursive-DFS entry order — every
  // counter and the first counterexample match the seed explorer, at any
  // --mem the run fits.
  void run_sequential() {
    Scratch& scratch = scratch_[0];
    std::vector<Node>& children = scratch.children;
    while (!frontier_.empty() && !aborted_.load()) {
      const Node node = std::move(frontier_.back());
      frontier_.pop_back();
      pop_bytes(node);
      children.clear();
      visit(node, scratch,
            [&](Node&& child) { children.push_back(std::move(child)); });
      for (auto it = children.rbegin(); it != children.rend(); ++it) {
        push_bytes(*it);
        frontier_.push_back(std::move(*it));
      }
    }
  }

  // Parallel mode: the shared work-stealing pool (engine/thread_pool.h —
  // per-worker deques, randomized front steals, atomic in-flight
  // termination; the machinery was extracted from here so the fuzz
  // campaign runner drains through the same implementation). Children are
  // batch-submitted onto the visiting worker's own deque before the
  // parent retires.
  //
  // Counter guarantees are unchanged from the shared-queue engine: every
  // generated node is popped exactly once by some worker, and dedupe is
  // atomic per state, so states/terminals/transitions/deduped match the
  // sequential run regardless of thread count or steal order. A --mem
  // ceiling hit inside a worker's visit surfaces here as the same
  // ContractError the sequential run throws: the pool stops the other
  // workers and rethrows it on this thread.
  void run_parallel(Node&& root) {
    WorkStealingPool<Node> pool(opt_.threads);
    push_bytes(root);
    pool.seed(std::move(root));
    pool.run(
        [this, &pool](std::size_t id, Node&& node) {
          if (aborted_.load()) {
            pool.stop();
            return;
          }
          pop_bytes(node);
          Scratch& scratch = scratch_[id];
          std::vector<Node>& children = scratch.children;
          children.clear();
          visit(node, scratch,
                [&](Node&& child) { children.push_back(std::move(child)); });
          for (const Node& child : children) push_bytes(child);
          pool.submit(id, children);
        });
    steal_batches_ = pool.steal_batches();
    tasks_stolen_ = pool.tasks_stolen();
  }

  const ExploreOptions& opt_;
  const StateCheck& invariant_;
  const StateCheck& terminal_;
  VisitedSet visited_;
  std::vector<Scratch> scratch_;  // one per worker; [0] in sequential mode
  std::vector<Node> frontier_;    // sequential mode only

  // --- partial-order reduction ---------------------------------------------
  bool sleep_on_ = false;
  bool symmetry_on_ = false;
  std::vector<std::uint8_t> server_mask_;  // dpor independence input
  std::optional<symmetry::Groups> groups_;  // built iff symmetry_on_
  std::unique_ptr<VisitedSet> plain_seen_;  // symmetry_merged telemetry

  std::atomic<std::size_t> frontier_bytes_{0};
  std::atomic<std::size_t> frontier_peak_{0};

  std::atomic<std::size_t> states_visited_{0};
  std::atomic<std::size_t> terminal_states_{0};
  std::atomic<std::size_t> transitions_{0};
  std::atomic<std::size_t> deduped_{0};
  std::atomic<std::size_t> truncated_{0};
  std::atomic<std::size_t> depth_cut_{0};
  std::atomic<std::size_t> sleep_blocked_{0};
  std::atomic<std::size_t> symmetry_merged_{0};
  // Written once, after pool.run() returns (workers joined) — plain fields.
  std::size_t steal_batches_ = 0;
  std::size_t tasks_stolen_ = 0;
  std::atomic<bool> complete_{true};
  std::atomic<bool> aborted_{false};

  std::mutex violation_mu_;
  bool ok_ = true;
  std::string violation_;
  std::vector<ExploreStep> violation_path_;
};

}  // namespace

ExploreResult frontier_search(const World& initial, const ExploreOptions& opt,
                              const StateCheck& invariant,
                              const StateCheck& terminal) {
  Search search(opt, invariant, terminal);
  return search.run(initial);
}

}  // namespace memu::engine

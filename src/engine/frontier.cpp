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
#include "engine/replay.h"
#include "engine/spill.h"
#include "engine/thread_pool.h"
#include "engine/visited.h"
#include "sim/symmetry.h"

namespace memu::engine {

namespace {

// A frontier entry: the parent's World plus the one step that leads here.
// The node's own World is not stored; popping it copies the parent (COW —
// pointer bumps) and delivers path.back() (the root, with an empty path,
// is its own parent and delivers nothing). `path` is the full delivery
// sequence from the initial state, kept as the replayable counterexample.
// Parents are immutable once published: workers copy them, never mutate
// them, so sharing one across threads is safe.
struct Node {
  std::shared_ptr<const World> parent;
  std::vector<ExploreStep> path;
  // Sleep set (engine/dpor.h): steps whose interleavings an earlier
  // sibling branch already covers. Always empty when reduction is off.
  std::vector<ExploreStep> sleep;
};

class Search {
 public:
  Search(const ExploreOptions& opt, const StateCheck& invariant,
         const StateCheck& terminal)
      : opt_(opt),
        invariant_(invariant),
        terminal_(terminal),
        frontier_budget_(opt.frontier_budget_bytes != 0
                             ? opt.frontier_budget_bytes
                             : opt.mem.total / 8),
        visited_({opt.exact_dedupe, auto_shard_count(opt.threads),
                  opt.dedupe ? visited_budget(opt) : 0}) {}

  ExploreResult run(const World& initial) {
    root_ = std::make_shared<const World>(initial);
    sleep_on_ = opt_.reduction.sleep_sets;
    if (sleep_on_) server_mask_ = dpor::server_mask(initial);
    // Symmetry engages only when the root World is eligible; crashes and
    // blocks during exploration never change eligibility (roles and the
    // process set are fixed), so one root check covers the search.
    symmetry_on_ = opt_.reduction.symmetry && symmetry::eligible(initial);
    if (symmetry_on_) groups_.emplace(initial);
    if (symmetry_on_ && opt_.dedupe && visited_budget(opt_) == 0) {
      // Telemetry twin-detector for symmetry_merged: an auxiliary plain-
      // fingerprint set, deliberately NOT maintained under a --mem budget
      // (it is unmetered and would roughly double visited memory).
      plain_seen_ = std::make_unique<VisitedSet>(
          VisitedSet::Options{false, auto_shard_count(opt_.threads), 0});
    }
    Node root{root_, {}, {}};
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
    result.dedupe_bytes = opt_.dedupe ? visited_.memory_bytes() : 0;
    result.dedupe_entries = opt_.dedupe ? visited_.size() : 0;
    result.exact_dedupe = opt_.exact_dedupe;
    result.frontier_bytes = frontier_peak_.load();
    if (spill_ != nullptr) {
      result.spill_batches = spill_->batches_spilled();
      result.spilled_nodes = spill_->nodes_spilled();
    }
    result.depth_cut = depth_cut_.load();
    result.steal_batches = steal_batches_;
    result.tasks_stolen = tasks_stolen_;
    result.sleep_blocked = sleep_blocked_.load();
    result.symmetry_merged = symmetry_merged_.load();
    result.symmetry_applied = symmetry_on_;
    result.replay_steps = replay_steps_.load();
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
  // --mem split: the visited set takes half the budget (it is the
  // structure that scales with DISTINCT states and cannot shed load), the
  // in-memory frontier an eighth (it can — to disk); the rest is slack
  // for parent Worlds and bookkeeping. Direct overrides win.
  static std::size_t visited_budget(const ExploreOptions& opt) {
    if (opt.visited_budget_bytes != 0) return opt.visited_budget_bytes;
    return opt.mem.total / 2;
  }

  // Frontier memory accounting: the node struct plus its path storage.
  // Deliberately based on size(), not capacity(), so the accounting — and
  // therefore every spill decision — is identical across allocators and
  // stdlib growth policies.
  static std::size_t node_bytes(const Node& n) {
    return sizeof(Node) +
           (n.path.size() + n.sleep.size()) * sizeof(ExploreStep);
  }

  void push_bytes(const Node& n) {
    const std::size_t now =
        frontier_bytes_.fetch_add(node_bytes(n)) + node_bytes(n);
    std::size_t peak = frontier_peak_.load();
    while (now > peak && !frontier_peak_.compare_exchange_weak(peak, now)) {
    }
  }

  void pop_bytes(const Node& n) { frontier_bytes_.fetch_sub(node_bytes(n)); }

  void record_violation(const std::string& why,
                        const std::vector<ExploreStep>& path) {
    std::lock_guard<std::mutex> lock(violation_mu_);
    if (ok_) {
      ok_ = false;
      violation_ = why;
      violation_path_ = path;
    }
    if (opt_.stop_at_first_violation) aborted_.store(true);
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
  // terminal, and child generation. Children are passed to `emit` in
  // deterministic (channel, index) order; the caller decides where they go.
  template <class Emit>
  void visit(const Node& node, Emit&& emit) {
    // Entry bookkeeping. The recursive DFS incremented `transitions` once
    // per child call; counting at entry (non-root nodes only) yields the
    // same totals in the same order, including under aborts.
    if (!node.path.empty()) transitions_.fetch_add(1);

    // Materialize: COW copy of the parent plus its one step. Delivery is
    // deterministic, so this World is state-identical (and canonical-
    // encoding byte-identical) to one built by replaying the whole path.
    World world = *node.parent;
    if (!node.path.empty()) {
      const ExploreStep& step = node.path.back();
      world.deliver(step.chan, step.index);
      replay_steps_.fetch_add(1);
    }

    if (opt_.dedupe) {
      if (!admit(world)) return;
    } else if (states_visited_.load() >= opt_.max_states) {
      complete_.store(false);
      truncated_.fetch_add(1);
      return;
    }
    states_visited_.fetch_add(1);

    if (invariant_) {
      if (const auto why = invariant_(world); why.has_value()) {
        record_violation("invariant: " + *why, node.path);
        if (aborted_.load()) return;
      }
    }

    const std::vector<ChannelId> chans = world.deliverable_channels();
    if (chans.empty()) {
      terminal_states_.fetch_add(1);
      if (terminal_) {
        if (const auto why = terminal_(world); why.has_value())
          record_violation("terminal: " + *why, node.path);
      }
      return;
    }
    if (node.path.size() >= opt_.max_depth) {
      complete_.store(false);
      depth_cut_.fetch_add(1);
      return;
    }

    // This node becomes its children's parent. The root's World is root_
    // itself; any other is wrapped once and shared by every child.
    const std::shared_ptr<const World> parent =
        node.path.empty() ? node.parent
                          : std::make_shared<const World>(std::move(world));

    // Sleep-set filtering (engine/dpor.h): an enumerated step found in the
    // node's sleep set is skipped — every interleaving it starts is
    // already covered through an earlier sibling of an ancestor. An
    // emitted child sleeps on the surviving inherited entries plus every
    // step emitted BEFORE it in this loop that commutes with its own
    // (dependent steps wake up). A node whose steps are ALL asleep emits
    // nothing and simply retires — it is not terminal (its channels are
    // non-empty), just redundant.
    std::vector<ExploreStep> acc;  // inherited sleep + earlier emitted steps
    if (sleep_on_) acc = node.sleep;
    const auto emit_step = [&](ChannelId chan, std::size_t index) {
      if (!sleep_on_) {
        emit(make_child(parent, node.path, chan, index));
        return;
      }
      const ExploreStep step{chan, index};
      if (dpor::sleeps(node.sleep, step)) {
        sleep_blocked_.fetch_add(1);
        return;
      }
      Node child = make_child(parent, node.path, chan, index);
      child.sleep = dpor::child_sleep(acc, step, server_mask_);
      acc.push_back(step);
      emit(std::move(child));
    };
    for (const ChannelId chan : chans) {
      if (!opt_.reorder) {
        // First allowed index (may be > 0 under value/bulk blocks).
        const std::size_t index = parent->first_deliverable_index(chan);
        MEMU_CHECK(index != kNoIndex);
        emit_step(chan, index);
        continue;
      }
      // Non-FIFO: branch over every deliverable position. Redundant
      // branches (identical payloads whose deliveries lead to identical
      // states) merge in the visited set — payload-level merging here
      // would be unsound for non-adjacent duplicates, whose remaining
      // queue orders differ.
      for (const std::size_t index : parent->deliverable_indices(chan)) {
        emit_step(chan, index);
      }
    }
  }

  static Node make_child(const std::shared_ptr<const World>& parent,
                         const std::vector<ExploreStep>& path, ChannelId chan,
                         std::size_t index) {
    Node child{parent, path, {}};
    child.path.push_back({chan, index});
    return child;
  }

  SpillFile& spill_file() {
    if (spill_ == nullptr) spill_ = std::make_unique<SpillFile>();
    return *spill_;
  }

  // Consumes `nodes[0, count)` — which must share one parent, and therefore
  // one path prefix (the parent's path) — into a batch storing that prefix
  // once plus each node's last step and sleep set.
  static SpillBatch make_batch(Node* nodes, std::size_t count) {
    SpillBatch batch;
    batch.prefix.assign(nodes[0].path.begin(), nodes[0].path.end() - 1);
    batch.entries.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
      Node& n = nodes[i];
      batch.entries.push_back({{n.path.back()}, std::move(n.sleep)});
    }
    return batch;
  }

  // Reconstitutes a reloaded batch: the shared prefix replays ONCE from the
  // root into a fresh parent all the batch's nodes share, so each reloaded
  // node's pop still delivers a single step.
  template <class Sink>
  void load_batch(SpillBatch& batch, Sink&& sink) {
    std::shared_ptr<const World> parent = root_;
    if (!batch.prefix.empty()) {
      World w = *root_;
      replay_steps_.fetch_add(replay(w, batch.prefix));
      parent = std::make_shared<const World>(std::move(w));
    }
    for (SpillEntry& entry : batch.entries) {
      Node node{parent, batch.prefix, std::move(entry.sleep)};
      node.path.insert(node.path.end(), entry.suffix.begin(),
                       entry.suffix.end());
      sink(std::move(node));
    }
    batch.entries.clear();
  }

  // Sequential spill policy: when the accounted frontier bytes exceed the
  // budget, move the COLD FRONT of the LIFO vector — the nodes a pure DFS
  // would reach last — to disk, down to half budget (hysteresis so spills
  // batch up instead of thrashing). Consecutive front nodes sharing a
  // parent spill as one batch (same parent => same prefix). The hot tail
  // stays in memory, so the pop order is untouched; batches return via
  // reload_sequential() LIFO, exactly when the DFS would have reached
  // them.
  void maybe_spill_sequential() {
    if (frontier_budget_ == 0 ||
        frontier_bytes_.load() <= frontier_budget_)
      return;
    const std::size_t target = frontier_budget_ / 2;
    std::size_t take = 0, freed = 0;
    while (take + 1 < frontier_.size() &&
           frontier_bytes_.load() - freed > target) {
      freed += node_bytes(frontier_[take]);
      ++take;
    }
    if (take == 0) return;
    std::size_t i = 0;
    while (i < take) {
      std::size_t j = i + 1;
      while (j < take && frontier_[j].parent == frontier_[i].parent) ++j;
      spill_file().spill(make_batch(frontier_.data() + i, j - i));
      i = j;
    }
    frontier_.erase(frontier_.begin(),
                    frontier_.begin() + static_cast<std::ptrdiff_t>(take));
    frontier_bytes_.fetch_sub(freed);
  }

  // Reloads the most recent spill batch when the in-memory frontier has
  // drained; returns false when no work remains anywhere.
  bool reload_sequential() {
    SpillBatch batch;
    if (spill_ == nullptr || !spill_->reload(batch)) return false;
    frontier_.reserve(frontier_.size() + batch.entries.size());
    load_batch(batch, [&](Node&& node) {
      push_bytes(node);
      frontier_.push_back(std::move(node));
    });
    return true;
  }

  // Sequential mode: LIFO frontier, children pushed in reverse generation
  // order, so pops happen in exactly the recursive-DFS entry order — every
  // counter and the first counterexample match the seed explorer. Under a
  // frontier budget the cold front of the vector lives on disk, re-entering
  // exactly where the DFS would have reached it: the visit order — and so
  // every counter and the first violation — is byte-identical at any
  // budget.
  void run_sequential() {
    std::vector<Node> children;
    while ((!frontier_.empty() || reload_sequential()) && !aborted_.load()) {
      const Node node = std::move(frontier_.back());
      frontier_.pop_back();
      pop_bytes(node);
      children.clear();
      visit(node, [&](Node&& child) { children.push_back(std::move(child)); });
      for (auto it = children.rbegin(); it != children.rend(); ++it) {
        push_bytes(*it);
        frontier_.push_back(std::move(*it));
      }
      maybe_spill_sequential();
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
  // sequential run regardless of thread count or steal order.
  // Parallel budget enforcement: a worker whose children would push the
  // accounted frontier past its budget spills the WHOLE child batch to
  // disk instead of submitting it (one lock, one sequential write). The
  // refill hook reloads a batch when a worker finds no queued work and
  // nothing to steal — before the termination check, so spilled nodes
  // (which live outside the pool's in-flight counter) can never be
  // orphaned: the spill happened inside a visit, which holds in-flight
  // above zero until the spilling worker retires, and by then the batch
  // record is visible under spill_mu_. Parallel mode never promised a
  // deterministic visit ORDER — only the counter guarantees above — and
  // spilling moves nodes between workers exactly like a steal does, so
  // those guarantees are unchanged.
  void spill_parallel(std::vector<Node>& children) {
    // All children of one visit share one parent, so the whole batch
    // carries one prefix.
    std::size_t freed = 0;
    for (const Node& child : children) freed += node_bytes(child);
    const SpillBatch batch = make_batch(children.data(), children.size());
    children.clear();
    {
      std::lock_guard<std::mutex> lock(spill_mu_);
      spill_file().spill(batch);
    }
    frontier_bytes_.fetch_sub(freed);
  }

  bool refill_parallel(std::size_t id, WorkStealingPool<Node>& pool) {
    SpillBatch batch;
    {
      std::lock_guard<std::mutex> lock(spill_mu_);
      if (spill_ == nullptr || !spill_->reload(batch)) return false;
    }
    // Prefix replay happens outside the lock — one replay per batch, not
    // per node.
    std::vector<Node> nodes;
    nodes.reserve(batch.entries.size());
    load_batch(batch, [&](Node&& node) {
      push_bytes(node);
      nodes.push_back(std::move(node));
    });
    pool.submit(id, nodes);
    return true;
  }

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
          // One child buffer per worker thread, reused across visits.
          static thread_local std::vector<Node> children;
          children.clear();
          visit(node,
                [&](Node&& child) { children.push_back(std::move(child)); });
          for (const Node& child : children) push_bytes(child);
          if (frontier_budget_ != 0 && !children.empty() &&
              frontier_bytes_.load() > frontier_budget_) {
            spill_parallel(children);
          } else {
            pool.submit(id, children);
          }
        },
        [this, &pool](std::size_t id) { return refill_parallel(id, pool); });
    steal_batches_ = pool.steal_batches();
    tasks_stolen_ = pool.tasks_stolen();
  }

  const ExploreOptions& opt_;
  const StateCheck& invariant_;
  const StateCheck& terminal_;
  // Declared before visited_ to match the constructor's init order.
  std::size_t frontier_budget_ = 0;  // bytes; 0 = unbudgeted
  VisitedSet visited_;

  std::shared_ptr<const World> root_;  // the root's World; reload base
  std::vector<Node> frontier_;         // sequential mode only

  // --- partial-order reduction ---------------------------------------------
  bool sleep_on_ = false;
  bool symmetry_on_ = false;
  std::vector<std::uint8_t> server_mask_;  // dpor independence input
  std::optional<symmetry::Groups> groups_;  // built iff symmetry_on_
  std::unique_ptr<VisitedSet> plain_seen_;  // symmetry_merged telemetry

  std::atomic<std::size_t> frontier_bytes_{0};
  std::atomic<std::size_t> frontier_peak_{0};
  std::mutex spill_mu_;  // guards spill_ in parallel mode
  std::unique_ptr<SpillFile> spill_;  // lazily created on first spill

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
  std::atomic<std::size_t> replay_steps_{0};
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

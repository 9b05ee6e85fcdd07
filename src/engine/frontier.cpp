#include "engine/frontier.h"

#include <algorithm>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/hash.h"
#include "engine/dpor.h"
#include "engine/visited.h"
#include "sim/symmetry.h"

namespace memu::engine {

namespace {

// An expanded state, shared by all of its children: its World and the
// delivery sequence from the initial state to it (the prefix of every
// child's replayable counterexample), stored once here rather than once
// per child. Immutable while any child holds it: a visit copies the
// World, never mutates it. Records are recycled (Search::retire): once its
// last child is visited, a record is cleared and kept, and the next
// expansion swaps the scratch World into it, so neither the World's
// vectors nor the path reallocate.
struct Parent {
  World world;
  std::vector<ExploreStep> path;
  std::uint32_t refs = 0;
};

// Counted handle on a Parent record: one pointer, the count lives in the
// record. Dropping the last handle deletes the record (a node dropped
// unvisited when a search aborts); Search::retire instead takes the record
// back for reuse.
class ParentRef {
 public:
  ParentRef() = default;
  explicit ParentRef(Parent* p) : p_(p) {
    if (p_ != nullptr) ++p_->refs;
  }
  ParentRef(const ParentRef& o) : ParentRef(o.p_) {}
  ParentRef(ParentRef&& o) noexcept : p_(std::exchange(o.p_, nullptr)) {}
  ParentRef& operator=(ParentRef o) noexcept {
    std::swap(p_, o.p_);
    return *this;
  }
  ~ParentRef() { delete release(); }

  // Drops this handle. Returns the record iff this was its last handle,
  // else nullptr.
  Parent* release() {
    Parent* p = std::exchange(p_, nullptr);
    if (p != nullptr && --p->refs == 0) return p;
    return nullptr;
  }

  const Parent* operator->() const { return p_; }
  const Parent& operator*() const { return *p_; }

 private:
  Parent* p_ = nullptr;
};

// A frontier entry: its parent plus the one step that leads here. The
// node's own World is not stored; popping it assigns the parent's World
// into the scratch World (COW — pointer bumps into warm vectors)
// and delivers `step`. The root is its own parent and delivers nothing.
struct Node {
  ParentRef parent;
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

// The search's buffers, reused across every node it visits: the World
// each node materializes into, the steps enumerated from it, the
// sleep-set accumulator, the children it emits, the retired parent
// records it expands into, and (exact mode) the dedupe key's encoding.
// Once they are warm the visit's own bookkeeping allocates nothing; what
// is left happens inside delivery (the handler's state changes and
// sends), and tests/engine/alloc_count_test.cpp counts it.
struct Scratch {
  World world;
  std::vector<ExploreStep> steps;
  std::vector<ExploreStep> acc;
  std::vector<Node> children;
  std::vector<std::unique_ptr<Parent>> spare;  // cleared, ready for reuse
  Bytes key;
};

class Search {
 public:
  Search(const ExploreOptions& opt, const StateCheck& invariant,
         const StateCheck& terminal, const LeafCheck& leaf)
      : opt_(opt),
        invariant_(invariant),
        terminal_(terminal),
        leaf_(leaf),
        visited_({opt.exact_dedupe, opt.mem}) {}

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
      plain_seen_ = std::make_unique<VisitedSet>(VisitedSet::Options{});
    }
    Node root;  // the default step marks the root
    auto* record = new Parent;
    record->world = initial;
    root.parent = ParentRef(record);
    push_bytes(root);
    frontier_.push_back(std::move(root));
    drain();

    ExploreResult result;
    result.states_visited = states_visited_;
    result.terminal_states = terminal_states_;
    result.transitions = transitions_;
    result.deduped = deduped_;
    result.truncated = truncated_;
    result.dedupe_bytes = visited_.memory_bytes();
    result.dedupe_entries = visited_.size();
    result.exact_dedupe = opt_.exact_dedupe;
    result.frontier_bytes = frontier_peak_;
    result.depth_cut = depth_cut_;
    result.sleep_blocked = sleep_blocked_;
    result.symmetry_merged = symmetry_merged_;
    result.symmetry_applied = symmetry_on_;
    result.replay_steps = result.transitions;
    result.complete = complete_ && !aborted_;
    result.ok = ok_;
    result.violation = violation_;
    result.violation_path = violation_path_;
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
    const std::size_t now = frontier_bytes_ += bytes;
    const std::size_t share = opt_.mem.total / 8;
    MEMU_CHECK_MSG(!opt_.mem.bounded() || now <= share,
                   "frontier at its --mem ceiling after "
                       << states_visited_ << " states: a " << bytes
                       << " B node next to the " << now - bytes
                       << " B held passes the " << share
                       << " B frontier share (an eighth) of --mem "
                       << opt_.mem.to_string() << "; rerun with --mem >= "
                       << MemBudget::rounded_up(16 * now).to_string());
    frontier_peak_ = std::max(frontier_peak_, now);
  }

  void pop_bytes(const Node& n) { frontier_bytes_ -= node_bytes(n); }

  // Records the violation found at `node` and aborts the search.
  void record_violation(const std::string& why, const Node& node) {
    ok_ = false;
    violation_ = why;
    violation_path_ = node.path();
    aborted_ = true;
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
  // the full encoding, through one recycled buffer.
  bool admit(const World& world) {
    if (states_visited_ >= opt_.max_states) {
      // Expansion budget exhausted: classify WITHOUT inserting — this
      // state is never expanded, so a later re-encounter must not count
      // as a dedupe merge (and could legitimately be expanded by a re-run
      // with a larger budget).
      bool seen;
      if (opt_.exact_dedupe) {
        dedupe_key(world, scratch_.key);
        seen = visited_.contains(scratch_.key);
      } else {
        seen = visited_.contains(dedupe_fingerprint(world));
      }
      if (seen) {
        ++deduped_;
      } else {
        complete_ = false;
        ++truncated_;
      }
      return false;
    }
    bool fresh;
    if (opt_.exact_dedupe) {
      dedupe_key(world, scratch_.key);
      fresh = visited_.try_insert(scratch_.key);
    } else {
      fresh = visited_.try_insert(dedupe_fingerprint(world));
    }
    if (!fresh) ++deduped_;
    if (plain_seen_ != nullptr) {
      // symmetry_merged telemetry: a canonical-key hit whose PLAIN
      // fingerprint is new merged a symmetric twin, not a literal revisit.
      const bool plain_fresh = plain_seen_->try_insert(world.state_hash());
      if (!fresh && plain_fresh) ++symmetry_merged_;
    }
    return fresh;
  }

  // Visits one frontier node: reconstitution, dedupe, bounds, invariant,
  // leaf, terminal, and child generation, in the scratch buffers. Children
  // go to scratch_.children in deterministic (channel, index) order.
  void visit(const Node& node) {
    // Entry bookkeeping. The recursive DFS incremented `transitions` once
    // per child call; counting at entry (non-root nodes only) yields the
    // same totals in the same order, including under aborts.
    if (!node.is_root()) ++transitions_;

    // Materialize: COW copy of the parent plus its one step, assigned into
    // the scratch World so its vectors keep their capacity. Delivery is
    // deterministic, so this World is state-identical (and canonical-
    // encoding byte-identical) to one built by replaying the whole path.
    World& world = scratch_.world;
    world = node.parent->world;
    if (!node.is_root()) world.deliver(node.step.chan, node.step.index);

    if (!admit(world)) return;
    ++states_visited_;

    if (invariant_) {
      if (const auto why = invariant_(world); why.has_value()) {
        record_violation("invariant: " + *why, node);
        return;
      }
    }
    if (leaf_ && leaf_(world)) return;  // admitted and counted, not expanded

    std::vector<ExploreStep>& steps = scratch_.steps;
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
      ++terminal_states_;
      if (terminal_) {
        if (const auto why = terminal_(world); why.has_value())
          record_violation("terminal: " + *why, node);
      }
      return;
    }
    if (node.depth() >= opt_.max_depth) {
      complete_ = false;
      ++depth_cut_;
      return;
    }

    // This node becomes its children's parent: the root's record is
    // already shared; any other state swaps the scratch World into a
    // recycled record with its path, shared by every child.
    const ParentRef parent =
        node.is_root() ? node.parent : expand_into_record(node);

    // Sleep-set filtering (engine/dpor.h): an enumerated step found in the
    // node's sleep set is skipped — every interleaving it starts is
    // already covered through an earlier sibling of an ancestor. An
    // emitted child sleeps on the surviving inherited entries plus every
    // step emitted BEFORE it in this loop that commutes with its own
    // (dependent steps wake up). A node whose steps are ALL asleep emits
    // nothing and simply retires — it is not terminal (its channels are
    // non-empty), just redundant.
    std::vector<ExploreStep>& acc = scratch_.acc;  // inherited + emitted
    std::vector<Node>& children = scratch_.children;
    if (sleep_on_) acc.assign(node.sleep.begin(), node.sleep.end());
    for (const ExploreStep& step : steps) {
      if (!sleep_on_) {
        children.push_back(Node{parent, step, {}});
        continue;
      }
      if (dpor::sleeps(node.sleep, step)) {
        ++sleep_blocked_;
        continue;
      }
      children.push_back(
          Node{parent, step, dpor::child_sleep(acc, step, server_mask_)});
      acc.push_back(step);
    }
  }

  // The record `node`'s children share: a retired record (or a fresh one)
  // takes the scratch World by swap — the scratch World gets the record's
  // cleared one, capacity intact — and the node's path.
  ParentRef expand_into_record(const Node& node) {
    std::unique_ptr<Parent> record;
    if (scratch_.spare.empty()) {
      record = std::make_unique<Parent>();
    } else {
      record = std::move(scratch_.spare.back());
      scratch_.spare.pop_back();
    }
    std::swap(record->world, scratch_.world);
    record->path.assign(node.parent->path.begin(), node.parent->path.end());
    record->path.push_back(node.step);
    return ParentRef(record.release());
  }

  // Drops a visited node's handle on its parent; dropping the last one
  // clears the record and keeps it for the next expansion.
  void retire(Node& node) {
    if (Parent* record = node.parent.release()) {
      record->world.clear();
      scratch_.spare.emplace_back(record);
    }
  }

  // LIFO frontier, children pushed in reverse generation order, so pops
  // happen in exactly the recursive-DFS entry order — every counter and
  // the first counterexample match the seed explorer, at any --mem the run
  // fits.
  void drain() {
    std::vector<Node>& children = scratch_.children;
    while (!frontier_.empty() && !aborted_) {
      Node node = std::move(frontier_.back());
      frontier_.pop_back();
      pop_bytes(node);
      children.clear();
      visit(node);
      retire(node);
      for (auto it = children.rbegin(); it != children.rend(); ++it) {
        push_bytes(*it);
        frontier_.push_back(std::move(*it));
      }
    }
  }

  const ExploreOptions& opt_;
  const StateCheck& invariant_;
  const StateCheck& terminal_;
  const LeafCheck& leaf_;
  VisitedSet visited_;
  Scratch scratch_;
  std::vector<Node> frontier_;

  // --- partial-order reduction ---------------------------------------------
  bool sleep_on_ = false;
  bool symmetry_on_ = false;
  std::vector<std::uint8_t> server_mask_;  // dpor independence input
  std::optional<symmetry::Groups> groups_;  // built iff symmetry_on_
  std::unique_ptr<VisitedSet> plain_seen_;  // symmetry_merged telemetry

  std::size_t frontier_bytes_ = 0;
  std::size_t frontier_peak_ = 0;

  std::size_t states_visited_ = 0;
  std::size_t terminal_states_ = 0;
  std::size_t transitions_ = 0;
  std::size_t deduped_ = 0;
  std::size_t truncated_ = 0;
  std::size_t depth_cut_ = 0;
  std::size_t sleep_blocked_ = 0;
  std::size_t symmetry_merged_ = 0;
  bool complete_ = true;
  bool aborted_ = false;

  bool ok_ = true;
  std::string violation_;
  std::vector<ExploreStep> violation_path_;
};

}  // namespace

ExploreResult frontier_search(const World& initial, const ExploreOptions& opt,
                              const StateCheck& invariant,
                              const StateCheck& terminal,
                              const LeafCheck& leaf) {
  Search search(opt, invariant, terminal, leaf);
  return search.run(initial);
}

}  // namespace memu::engine

// SpillFile: disk overflow for frontier nodes under a --mem budget.
//
// A frontier node is fully determined by its delivery path from the
// initial state plus its sleep set (partial-order reduction state — empty
// when reduction is off), so spilling costs 16 bytes a step and reloading
// reconstitutes the node by replay. Nodes spill in batches that share one
// PATH PREFIX: the explorer batches runs of nodes with the same parent,
// whose paths all extend the parent's path by one step. The batch stores
// that prefix once plus each node's suffix past it (one step, as the
// explorer writes them), and reload replays the prefix a single time into
// one fresh parent World the batch's nodes share — so a reloaded node's
// pop delivers just its own step, as an unspilled node's does.
//
// Batches are strictly LIFO: reload() always returns the most recently
// spilled batch, with its nodes in their original order. That discipline is
// what lets the sequential explorer keep its DFS visit order byte-identical
// at ANY budget: the frontier vector's cold front [0, k) moves to disk as
// consecutive per-parent batches, and when the in-memory tail drains,
// popping the reloaded batches back-to-front continues exactly where an
// unbudgeted run would have.
//
// The backing store is one anonymous temp file (std::tmpfile — unlinked at
// creation, reclaimed by the OS even on crash), created lazily on the
// first spill. Batch bookkeeping lives in memory; reloaded batches'
// regions are reused by later spills, so the file's extent tracks the
// PENDING spill volume, not the lifetime total. Not thread-safe: callers
// that spill from concurrent workers serialize on their own mutex.
#pragma once

#include <cstdio>
#include <vector>

#include "engine/frontier.h"

namespace memu::engine {

// One spilled node: its path past the batch's shared prefix, and the sleep
// set it carried (partial-order reduction; empty otherwise).
struct SpillEntry {
  std::vector<ExploreStep> suffix;
  std::vector<ExploreStep> sleep;
};

// One spill batch: nodes sharing the path prefix their common parent World
// had already applied.
struct SpillBatch {
  std::vector<ExploreStep> prefix;
  std::vector<SpillEntry> entries;
};

class SpillFile {
 public:
  SpillFile() = default;
  SpillFile(const SpillFile&) = delete;
  SpillFile& operator=(const SpillFile&) = delete;
  ~SpillFile();

  // Appends one batch. Entry order is preserved verbatim by the matching
  // reload(). No-op for an entry-less batch.
  void spill(const SpillBatch& batch);

  // Pops the most recently spilled batch into `out` (contents replaced).
  // Returns false — leaving `out` untouched — when nothing is pending.
  bool reload(SpillBatch& out);

  std::size_t batches_pending() const { return batches_.size(); }
  std::size_t batches_spilled() const { return batches_spilled_; }  // lifetime
  std::size_t nodes_spilled() const { return nodes_spilled_; }      // lifetime
  std::size_t bytes_spilled() const { return bytes_spilled_; }      // lifetime

 private:
  struct BatchRecord {
    long offset = 0;
    std::size_t bytes = 0;
  };

  std::FILE* file_ = nullptr;  // lazily created
  std::vector<BatchRecord> batches_;  // stack: back = most recent
  std::size_t batches_spilled_ = 0;
  std::size_t nodes_spilled_ = 0;
  std::size_t bytes_spilled_ = 0;
};

}  // namespace memu::engine

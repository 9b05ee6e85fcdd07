// CAS/CASGC server.
//
// State: a map tag -> (optional coded element, finalized?), plus the set of
// readers waiting for elements that have not arrived yet. Plain CAS never
// deletes anything — its storage grows with the number of *ever-started*
// writes, which is exactly why the paper's Figure 1 erasure line grows with
// the number of active writes nu: with garbage collection (CASGC, delta
// bounded) a server holds at most delta + 1 finalized versions plus
// in-flight pre-written ones.
#pragma once

#include <map>
#include <optional>
#include <set>
#include <utility>

#include "algo/cas/messages.h"
#include "registers/tag.h"
#include "registers/value.h"
#include "sim/process.h"

namespace memu::cas {

class Server final : public CloneableProcess<Server> {
 public:
  // `initial_shard` is this server's coded element of the default initial
  // value v0 (finalized from the start). `delta`: CASGC concurrency bound;
  // nullopt = plain CAS (no garbage collection).
  Server(Bytes initial_shard, std::optional<std::size_t> delta);

  void on_message(Context& ctx, NodeId from,
                  const MessagePayload& msg) override;

  StateBits state_size() const override;
  void write_state(BufWriter& w, const NodeRelabeling& rank) const override;
  std::string name() const override { return "cas.server"; }
  bool is_server() const override { return true; }

  // Stored coded elements live behind shared slab blocks (each written once
  // by its pre-write): a COW clone shares them, so a detach materializes
  // metadata only. This is the detach-cost analogue of the paper's storage
  // split — the value bits are the part COW sharing makes free.
  std::uint64_t detach_bytes() const override {
    return static_cast<std::uint64_t>((state_size().metadata_bits + 7.0) /
                                      8.0);
  }

  // State embeds CLIENT ids only (waiting_ readers), which the symmetry
  // relabeling maps identically, so the state is id-free and write_state
  // can ignore the relabeling. Interchangeability of the stored
  // shards themselves is the clients' k=1 gate (see cas::Writer::symmetry).
  Symmetry symmetry() const override { return Symmetry::kIdFree; }

  // Introspection for tests and storage experiments.
  std::size_t stored_versions() const;       // entries holding a shard
  std::size_t finalized_versions() const;    // entries marked finalized
  Tag highest_finalized() const;
  bool gc_enabled() const { return delta_.has_value(); }
  const Tag& gc_watermark() const { return gc_watermark_; }
  std::size_t announced_hashes() const { return announced_.size(); }
  std::size_t rejected_pre_writes() const { return rejected_; }

 private:
  struct Entry {
    // Empty handle = element not yet pre-written; set exactly once.
    ValueRef shard;
    bool finalized = false;
  };

  void handle_read_fin(Context& ctx, NodeId from, const ReadFinReq& req);
  void run_gc(Context& ctx);

  std::map<Tag, Entry> store_;
  // Readers registered for a tag whose element has not arrived: they get a
  // ReadFinResp as soon as the pre-write for that tag is delivered.
  std::map<Tag, std::set<std::pair<NodeId, std::uint64_t>>> waiting_;
  // Announced shard hashes (hash-phase variant): a pre-write whose element
  // does not match its announced hash is rejected — the integrity check the
  // Byzantine algorithms [2, 15] run this extra phase for.
  std::map<Tag, std::uint64_t> announced_;
  std::size_t rejected_ = 0;
  std::optional<std::size_t> delta_;
  // Everything strictly below this tag has been garbage-collected.
  Tag gc_watermark_ = Tag::initial();
};

}  // namespace memu::cas

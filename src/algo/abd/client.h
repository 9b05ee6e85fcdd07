// ABD write and read clients.
//
// Writer (MWMR): phase 1 queries a quorum for the max tag (value-independent)
// then phase 2 stores (new tag, value) at a quorum (value-dependent).
// In SWMR mode the writer owns the tag sequence and skips phase 1, making
// the whole write a single value-dependent phase.
// Reader: phase 1 queries a quorum for (tag, value); phase 2 writes the max
// pair back to a quorum (ensuring atomicity), then returns the value.
#pragma once

#include <vector>

#include "algo/abd/messages.h"
#include "registers/tag.h"
#include "registers/value.h"
#include "sim/process.h"

namespace memu::abd {

class Writer final : public RoundClient<Writer> {
 public:
  // `quorum` is the number of replies awaited per phase (N - f).
  // `single_writer` enables the one-phase SWMR optimization.
  Writer(std::vector<NodeId> servers, std::size_t quorum,
         std::uint32_t writer_id, bool single_writer = false);

  void on_invoke(Context& ctx, const Invocation& inv) override;
  void on_message(Context& ctx, NodeId from,
                  const MessagePayload& msg) override;

  StateBits state_size() const override;
  void write_state(BufWriter& w, const NodeRelabeling& rank) const override;
  std::string name() const override { return "abd.writer"; }

  // The pending value sits behind a shared slab block (set once at invoke):
  // a COW clone shares it, so a detach materializes metadata only.
  std::uint64_t detach_bytes() const override {
    return static_cast<std::uint64_t>((state_size().metadata_bits + 7.0) /
                                      8.0);
  }

  // Quorum state references servers only through the replied_ set (mapped
  // in write_state) and counts; server identity is otherwise irrelevant to
  // ABD.
  Symmetry symmetry() const override { return Symmetry::kMapsIds; }

  bool idle() const { return phase_ == Phase::kIdle; }
  std::uint64_t current_op() const { return op_id_; }

  enum class Phase : std::uint8_t { kIdle, kQuery, kStore };
  Phase phase() const { return phase_; }

 private:
  void start_store(Context& ctx);
  void complete(Context& ctx);

  ServerList servers_;
  std::size_t quorum_;
  std::uint32_t writer_id_;
  bool single_writer_;

  Phase phase_ = Phase::kIdle;
  std::uint64_t op_id_ = 0;  // oplog operation id
  ValueRef pending_value_;   // set once per write, cleared at completion
  Tag tag_;                   // tag being written
  std::uint64_t swmr_seq_ = 0;
  Tag max_seen_;              // max tag seen during query
  NodeSet replied_;
};

class Reader final : public RoundClient<Reader> {
 public:
  // `write_back` selects the second phase. With it, the reader implements an
  // atomic register (full ABD). Without it, reads are one-phase and the
  // register is only REGULAR: new-old inversions between sequential reads
  // become possible — exactly the safety level Theorems 4.1/5.1/B.1 assume,
  // and the cheapest protocol they still apply to.
  Reader(std::vector<NodeId> servers, std::size_t quorum,
         bool write_back = true);

  void on_invoke(Context& ctx, const Invocation& inv) override;
  void on_message(Context& ctx, NodeId from,
                  const MessagePayload& msg) override;

  StateBits state_size() const override;
  void write_state(BufWriter& w, const NodeRelabeling& rank) const override;
  std::string name() const override { return "abd.reader"; }

  // The best-so-far value sits behind a shared slab block (replaced
  // wholesale when a fresher response wins): a COW clone shares it, so a
  // detach materializes metadata only.
  std::uint64_t detach_bytes() const override {
    return static_cast<std::uint64_t>((state_size().metadata_bits + 7.0) /
                                      8.0);
  }

  Symmetry symmetry() const override { return Symmetry::kMapsIds; }

  bool idle() const { return phase_ == Phase::kIdle; }
  std::uint64_t current_op() const { return op_id_; }

 private:
  enum class Phase : std::uint8_t { kIdle, kQuery, kWriteBack };

  ServerList servers_;
  std::size_t quorum_;
  bool write_back_;

  Phase phase_ = Phase::kIdle;
  std::uint64_t op_id_ = 0;
  Tag best_tag_;
  ValueRef best_value_;
  NodeSet replied_;
};

}  // namespace memu::abd

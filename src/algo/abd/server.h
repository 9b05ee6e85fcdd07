// ABD server: stores exactly one (tag, value) pair — the replication storage
// scheme whose cost Figure 1's "ABD" line idealizes.
#pragma once

#include "algo/abd/messages.h"
#include "registers/tag.h"
#include "registers/value.h"
#include "sim/process.h"

namespace memu::abd {

class Server final : public CloneableProcess<Server> {
 public:
  // Servers start holding the default initial value v0 with the initial tag,
  // matching the paper's model where a read that precedes every write
  // returns v0.
  explicit Server(Value initial_value)
      : tag_(Tag::initial()), value_(ValueRef(std::move(initial_value))) {}

  void on_message(Context& ctx, NodeId from,
                  const MessagePayload& msg) override;

  StateBits state_size() const override {
    return {static_cast<double>(value_->size()) * 8.0, Tag::kBits};
  }

  void write_state(BufWriter& w, const NodeRelabeling&) const override {
    tag_.encode(w);
    w.bytes(*value_);
  }

  std::string name() const override { return "abd.server"; }
  bool is_server() const override { return true; }

  // The stored value sits behind a shared slab block (replaced wholesale on
  // a newer store, never mutated in place): a COW clone shares it, so a
  // detach materializes the tag only.
  std::uint64_t detach_bytes() const override {
    return static_cast<std::uint64_t>((state_size().metadata_bits + 7.0) /
                                      8.0);
  }

  // State is one (tag, value) pair — no node ids — and the protocol never
  // distinguishes replicas, so servers are fully interchangeable.
  Symmetry symmetry() const override { return Symmetry::kIdFree; }

  const Tag& tag() const { return tag_; }
  const Value& value() const { return *value_; }

 private:
  Tag tag_;
  ValueRef value_;
};

}  // namespace memu::abd

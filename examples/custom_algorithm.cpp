// Tutorial: implementing your own shared-memory emulation algorithm against
// the memucost Process API, then validating it with the library's
// consistency checkers and lower-bound harnesses.
//
// The algorithm below is a deliberately minimal SWSR *regular* register
// ("naive register"): one-phase writes (writer-owned sequence numbers, no
// query round) and one-phase reads (query a quorum, return the max tag).
// It is the smallest protocol the paper's Theorems B.1/4.1/5.1 apply to.
//
//   $ ./custom_algorithm
#include <iostream>
#include <set>

#include "adversary/harness.h"
#include "consistency/checker.h"
#include "engine/scheduler.h"
#include "registers/tag.h"
#include "registers/value.h"
#include "sim/process.h"
#include "sim/world.h"
#include "workload/driver.h"

namespace naive {

using namespace memu;

// ---- 1. Define the protocol messages. ---------------------------------------
// Every message reports its size (value vs metadata bits) and whether it is
// value-dependent — the storage meters and Theorem 6.5 machinery use both.
// type_name() returns a view of a string literal, so fingerprinting a
// message allocates nothing.

struct Put final : MessagePayload {
  std::uint64_t rid;
  Tag tag;
  Value value;
  Put(std::uint64_t r, Tag t, Value v) : rid(r), tag(t), value(std::move(v)) {}
  std::string_view type_name() const override { return "naive.put"; }
  StateBits size_bits() const override {
    return {static_cast<double>(value.size()) * 8.0, 64 + Tag::kBits};
  }
  bool value_dependent() const override { return true; }
};

struct PutAck final : MessagePayload {
  std::uint64_t rid;
  explicit PutAck(std::uint64_t r) : rid(r) {}
  std::string_view type_name() const override { return "naive.put_ack"; }
  StateBits size_bits() const override { return {0, 64}; }
};

struct Get final : MessagePayload {
  std::uint64_t rid;
  explicit Get(std::uint64_t r) : rid(r) {}
  std::string_view type_name() const override { return "naive.get"; }
  StateBits size_bits() const override { return {0, 64}; }
};

struct GetResp final : MessagePayload {
  std::uint64_t rid;
  Tag tag;
  Value value;
  GetResp(std::uint64_t r, Tag t, Value v)
      : rid(r), tag(t), value(std::move(v)) {}
  std::string_view type_name() const override { return "naive.get_resp"; }
  StateBits size_bits() const override {
    return {static_cast<double>(value.size()) * 8.0, 64 + Tag::kBits};
  }
  bool value_dependent() const override { return true; }
};

// ---- 2. Implement the server automaton. -------------------------------------
// Servers must be clonable (CloneableProcess), report their storage
// footprint, and write their state canonically into the caller's buffer
// (write_state) — that is all the adversary harness needs to run
// impossibility constructions against you. The NodeRelabeling argument
// maps server ids for symmetry reduction; this state names none, so it is
// ignored here.

class Server final : public CloneableProcess<Server> {
 public:
  explicit Server(Value v0) : value_(std::move(v0)) {}

  void on_message(Context& ctx, NodeId from,
                  const MessagePayload& msg) override {
    if (const auto* p = dynamic_cast<const Put*>(&msg)) {
      if (p->tag > tag_) {
        tag_ = p->tag;
        value_ = p->value;
      }
      ctx.send(from, make_msg<PutAck>(p->rid));
    } else if (const auto* g = dynamic_cast<const Get*>(&msg)) {
      ctx.send(from, make_msg<GetResp>(g->rid, tag_, value_));
    }
  }

  StateBits state_size() const override {
    return {static_cast<double>(value_.size()) * 8.0, Tag::kBits};
  }

  void write_state(BufWriter& w, const NodeRelabeling&) const override {
    tag_.encode(w);
    w.bytes(value_);
  }

  std::string name() const override { return "naive.server"; }
  bool is_server() const override { return true; }

 private:
  Tag tag_ = Tag::initial();
  Value value_;
};

// ---- 3. Implement the clients. ------------------------------------------------

class Writer final : public CloneableProcess<Writer> {
 public:
  Writer(std::vector<NodeId> servers, std::size_t quorum)
      : servers_(std::move(servers)), quorum_(quorum) {}

  void on_invoke(Context& ctx, const Invocation& inv) override {
    op_id_ = ctx.next_op_id();
    value_ = inv.value;
    ctx.log_op({OpEvent::Kind::kInvoke, ctx.self(), op_id_, OpType::kWrite,
                value_, 0});
    acked_.clear();
    ++rid_;
    const auto put = make_msg<Put>(rid_, Tag{++seq_, 1}, value_);
    ctx.send_all(servers_, put);
  }

  void on_message(Context& ctx, NodeId from,
                  const MessagePayload& msg) override {
    const auto* ack = dynamic_cast<const PutAck*>(&msg);
    if (ack == nullptr || ack->rid != rid_ || value_.empty()) return;
    acked_.insert(from);
    if (acked_.size() >= quorum_) {
      value_.clear();
      ctx.log_op({OpEvent::Kind::kResponse, ctx.self(), op_id_,
                  OpType::kWrite, Value{}, 0});
    }
  }

  StateBits state_size() const override {
    return {static_cast<double>(value_.size()) * 8.0, Tag::kBits + 128};
  }
  void write_state(BufWriter& w, const NodeRelabeling&) const override {
    w.u64(rid_);
    w.u64(seq_);
    w.bytes(value_);
  }
  std::string name() const override { return "naive.writer"; }

 private:
  std::vector<NodeId> servers_;
  std::size_t quorum_;
  std::uint64_t rid_ = 0, op_id_ = 0, seq_ = 0;
  Value value_;
  std::set<NodeId> acked_;
};

class Reader final : public CloneableProcess<Reader> {
 public:
  Reader(std::vector<NodeId> servers, std::size_t quorum)
      : servers_(std::move(servers)), quorum_(quorum) {}

  void on_invoke(Context& ctx, const Invocation&) override {
    op_id_ = ctx.next_op_id();
    ctx.log_op({OpEvent::Kind::kInvoke, ctx.self(), op_id_, OpType::kRead,
                Value{}, 0});
    busy_ = true;
    replied_.clear();
    best_ = Tag::initial();
    best_value_.clear();
    ++rid_;
    const auto get = make_msg<Get>(rid_);
    ctx.send_all(servers_, get);
  }

  void on_message(Context& ctx, NodeId from,
                  const MessagePayload& msg) override {
    const auto* resp = dynamic_cast<const GetResp*>(&msg);
    if (resp == nullptr || resp->rid != rid_ || !busy_) return;
    replied_.insert(from);
    if (resp->tag > best_ || best_value_.empty()) {
      best_ = resp->tag;
      best_value_ = resp->value;
    }
    if (replied_.size() >= quorum_) {
      busy_ = false;
      ctx.log_op({OpEvent::Kind::kResponse, ctx.self(), op_id_, OpType::kRead,
                  best_value_, 0});
    }
  }

  StateBits state_size() const override {
    return {static_cast<double>(best_value_.size()) * 8.0, Tag::kBits + 128};
  }
  void write_state(BufWriter& w, const NodeRelabeling&) const override {
    w.u64(rid_);
    best_.encode(w);
    w.bytes(best_value_);
  }
  std::string name() const override { return "naive.reader"; }

 private:
  std::vector<NodeId> servers_;
  std::size_t quorum_;
  bool busy_ = false;
  std::uint64_t rid_ = 0, op_id_ = 0;
  Tag best_;
  Value best_value_;
  std::set<NodeId> replied_;
};

}  // namespace naive

int main() {
  using namespace memu;
  constexpr std::size_t kN = 5, kF = 2, kValueSize = 16;
  const std::size_t quorum = kN - kF;

  // ---- 4. Assemble a World and drive a workload. ---------------------------
  auto build = [&] {
    adversary::Sut sut;
    std::vector<NodeId> servers;
    for (std::size_t i = 0; i < kN; ++i)
      servers.push_back(sut.world.add_process(
          std::make_unique<naive::Server>(enum_value(0, kValueSize))));
    sut.servers = servers;
    sut.writer = sut.world.add_process(
        std::make_unique<naive::Writer>(servers, quorum));
    sut.reader = sut.world.add_process(
        std::make_unique<naive::Reader>(servers, quorum));
    sut.f = kF;
    sut.value_size = kValueSize;
    sut.algorithm = "naive";
    return sut;
  };

  {
    adversary::Sut sut = build();
    workload::Options wopt;
    wopt.writes_per_writer = 5;
    wopt.reads_per_reader = 5;
    wopt.value_size = kValueSize;
    const auto res = workload::run(sut.world, {sut.writer}, {sut.reader}, wopt);
    std::cout << "workload completed: " << res.completed << ", "
              << res.steps << " deliveries\n";

    // ---- 5. Validate with the consistency checkers. -----------------------
    const auto regular =
        check_regular_swsr(res.history, enum_value(0, kValueSize));
    const auto atomic = check_atomic(res.history, enum_value(0, kValueSize));
    std::cout << "regular: " << (regular.ok ? "PASS" : "FAIL")
              << " | atomic: " << (atomic.ok ? "PASS" : "FAIL")
              << "  (one-phase reads are regular; atomicity may fail under "
                 "adversarial schedules — this algorithm does not "
                 "write-back)\n";
  }

  // ---- 6. Run the paper's lower-bound constructions against it. -----------
  const auto singleton =
      adversary::verify_singleton_injectivity(build, 8);
  std::cout << "Theorem B.1 harness: injective="
            << (singleton.injective ? "yes" : "NO")
            << " probes=" << (singleton.probes_consistent ? "ok" : "BAD")
            << '\n';

  const auto pairs = adversary::verify_pair_injectivity(build, 3);
  std::cout << "Theorem 4.1 harness: critical pairs found="
            << (pairs.all_found ? "yes" : "NO")
            << " injective=" << (pairs.injective ? "yes" : "NO") << '\n';

  std::cout << "\nYour algorithm's storage (" << kN
            << " servers x B) is subject to the same bounds: total >= "
            << "2N/(N-f+2) * B (Theorem 5.1) — no protocol cleverness "
               "escapes it.\n";
  return 0;
}

// StripStore — a simplified optimistic erasure-coded register in the spirit
// of Dutta-Guerraoui-Levy's ORCAS (the paper's reference [12]).
//
// The mechanism CAS lacks: servers CHANGE REPRESENTATION. During a write,
// each server optimistically stores the FULL value (so any single survivor
// can serve it); when the version commits, the server strips the copy down
// to its own coded symbol of an RS(N, k = N - f) code — the
// Singleton-optimal N/(N-f) per committed version that the paper's erasure
// upper bound nu*N/(N-f) is built from. (CAS cannot use k = N - f: its
// pre-writes carry only symbols, so reads need k symbol holders inside a
// quorum intersection, forcing k <= N - 2f. Here reads can decode from any
// k committed servers because every committed server has a symbol and
// uncommitted ones still hold full values.)
//
// Write: query (value-independent) -> store full value at all, await N - f
// acks (the single value-dependent phase; Theorem 6.5's class) -> commit,
// await N - f acks.
// Read: query max committed tag t -> get(t) from all; a server with the
// full value answers it outright, one with a symbol sends the symbol, one
// without t registers the reader and forwards on arrival. The reader
// finishes with a full copy or k symbols. Gets also commit t (write-back
// of metadata), giving atomicity like CAS's read-finalize.
//
// Storage shape: committed versions cost N/(N-f) * B total; versions with
// an active (uncommitted) write cost up to N * B — the optimistic tradeoff:
// better steady-state storage than CAS for the same f, paid for with
// full-value writes on the wire.
#pragma once

#include <map>
#include <optional>
#include <set>
#include <vector>

#include "codec/codec.h"
#include "registers/tag.h"
#include "registers/value.h"
#include "sim/process.h"
#include "sim/world.h"

namespace memu::strip {

// ---- messages -----------------------------------------------------------------

struct QueryReq final : MessagePayload {
  std::uint64_t rid = 0;
  explicit QueryReq(std::uint64_t r) : rid(r) {}
  std::string_view type_name() const override { return "strip.query_req"; }
  StateBits size_bits() const override { return {0, 64}; }

  void encode_content(BufWriter& w) const override {
    w.u64(rid);
  }
};

struct QueryResp final : MessagePayload {
  std::uint64_t rid = 0;
  Tag tag;
  QueryResp(std::uint64_t r, Tag t) : rid(r), tag(t) {}
  std::string_view type_name() const override { return "strip.query_resp"; }
  StateBits size_bits() const override { return {0, 64 + Tag::kBits}; }

  void encode_content(BufWriter& w) const override {
    w.u64(rid);
    tag.encode(w);
  }
};

// The single value-dependent phase: the full value travels to every server.
struct StoreReq final : MessagePayload {
  std::uint64_t rid = 0;
  Tag tag;
  Value value;
  StoreReq(std::uint64_t r, Tag t, Value v)
      : rid(r), tag(t), value(std::move(v)) {}
  std::string_view type_name() const override { return "strip.store_req"; }
  StateBits size_bits() const override {
    return {static_cast<double>(value.size()) * 8.0, 64 + Tag::kBits};
  }
  bool value_dependent() const override { return true; }

  void encode_content(BufWriter& w) const override {
    w.u64(rid);
    tag.encode(w);
    w.bytes(value);
  }
};

struct StoreAck final : MessagePayload {
  std::uint64_t rid = 0;
  Tag tag;
  StoreAck(std::uint64_t r, Tag t) : rid(r), tag(t) {}
  std::string_view type_name() const override { return "strip.store_ack"; }
  StateBits size_bits() const override { return {0, 64 + Tag::kBits}; }

  void encode_content(BufWriter& w) const override {
    w.u64(rid);
    tag.encode(w);
  }
};

struct CommitReq final : MessagePayload {
  std::uint64_t rid = 0;
  Tag tag;
  CommitReq(std::uint64_t r, Tag t) : rid(r), tag(t) {}
  std::string_view type_name() const override { return "strip.commit_req"; }
  StateBits size_bits() const override { return {0, 64 + Tag::kBits}; }

  void encode_content(BufWriter& w) const override {
    w.u64(rid);
    tag.encode(w);
  }
};

struct CommitAck final : MessagePayload {
  std::uint64_t rid = 0;
  Tag tag;
  CommitAck(std::uint64_t r, Tag t) : rid(r), tag(t) {}
  std::string_view type_name() const override { return "strip.commit_ack"; }
  StateBits size_bits() const override { return {0, 64 + Tag::kBits}; }

  void encode_content(BufWriter& w) const override {
    w.u64(rid);
    tag.encode(w);
  }
};

// Reader -> server: send me version `tag` (full or symbol), now or when it
// arrives; also treat it as committed.
struct GetReq final : MessagePayload {
  std::uint64_t rid = 0;
  Tag tag;
  GetReq(std::uint64_t r, Tag t) : rid(r), tag(t) {}
  std::string_view type_name() const override { return "strip.get_req"; }
  StateBits size_bits() const override { return {0, 64 + Tag::kBits}; }

  void encode_content(BufWriter& w) const override {
    w.u64(rid);
    tag.encode(w);
  }
};

struct GetResp final : MessagePayload {
  enum class Kind : std::uint8_t { kNothing, kFull, kSymbol, kGced };
  std::uint64_t rid = 0;
  Tag tag;
  Kind kind = Kind::kNothing;
  Bytes data;  // full value or symbol

  GetResp(std::uint64_t r, Tag t, Kind k, Bytes d)
      : rid(r), tag(t), kind(k), data(std::move(d)) {}

  std::string_view type_name() const override { return "strip.get_resp"; }
  StateBits size_bits() const override {
    return {static_cast<double>(data.size()) * 8.0, 64 + Tag::kBits + 2};
  }
  bool value_dependent() const override { return kind != Kind::kNothing; }

  void encode_content(BufWriter& w) const override {
    w.u64(rid);
    tag.encode(w);
    w.u8(static_cast<std::uint8_t>(kind));
    w.bytes(data);
  }
};

// ---- server --------------------------------------------------------------------

class Server final : public CloneableProcess<Server> {
 public:
  // `index` is this server's codeword position. `delta`: keep the delta + 1
  // highest committed versions (nullopt = keep everything).
  Server(CodecPtr codec, std::size_t index, std::size_t value_size,
         Bytes initial_symbol, std::optional<std::size_t> delta);

  void on_message(Context& ctx, NodeId from,
                  const MessagePayload& msg) override;

  StateBits state_size() const override;
  void write_state(BufWriter& w, const NodeRelabeling& rank) const override;
  std::string name() const override { return "strip.server"; }
  bool is_server() const override { return true; }

  // Introspection.
  std::size_t full_copies() const;
  std::size_t symbols() const;
  Tag highest_committed() const;

 private:
  struct Entry {
    enum class Rep : std::uint8_t { kFull, kSymbol };
    // Full value while optimistic; this server's symbol after commit. An
    // empty kSymbol means "committed before the store arrived".
    Rep rep = Rep::kSymbol;
    Bytes data;
    bool committed = false;
    bool is_full() const { return rep == Rep::kFull; }
  };

  void commit_tag(Context& ctx, const Tag& tag);
  void run_gc(Context& ctx);
  void answer(Context& ctx, NodeId reader, std::uint64_t rid, const Tag& tag);

  CodecPtr codec_;
  std::size_t index_;
  std::size_t value_size_;
  std::optional<std::size_t> delta_;
  std::map<Tag, Entry> store_;
  std::map<Tag, std::set<std::pair<NodeId, std::uint64_t>>> waiting_;
  Tag gc_watermark_ = Tag::initial();
};

// ---- clients --------------------------------------------------------------------

class Writer final : public CloneableProcess<Writer> {
 public:
  Writer(std::vector<NodeId> servers, std::size_t quorum,
         std::uint32_t writer_id);

  void on_invoke(Context& ctx, const Invocation& inv) override;
  void on_message(Context& ctx, NodeId from,
                  const MessagePayload& msg) override;

  StateBits state_size() const override;
  void write_state(BufWriter& w, const NodeRelabeling& rank) const override;
  std::string name() const override { return "strip.writer"; }

  enum class Phase : std::uint8_t { kIdle, kQuery, kStore, kCommit };
  Phase phase() const { return phase_; }
  bool idle() const { return phase_ == Phase::kIdle; }

 private:
  std::vector<NodeId> servers_;
  std::size_t quorum_;
  std::uint32_t writer_id_;

  Phase phase_ = Phase::kIdle;
  std::uint64_t rid_ = 0, op_id_ = 0;
  Value pending_value_;
  Tag tag_, max_seen_;
  std::set<NodeId> replied_;
};

class Reader final : public CloneableProcess<Reader> {
 public:
  Reader(std::vector<NodeId> servers, std::size_t quorum, CodecPtr codec,
         std::size_t value_size);

  void on_invoke(Context& ctx, const Invocation& inv) override;
  void on_message(Context& ctx, NodeId from,
                  const MessagePayload& msg) override;

  StateBits state_size() const override;
  void write_state(BufWriter& w, const NodeRelabeling& rank) const override;
  std::string name() const override { return "strip.reader"; }
  bool idle() const { return phase_ == Phase::kIdle; }
  std::size_t restarts() const { return restarts_; }

 private:
  enum class Phase : std::uint8_t { kIdle, kQuery, kGet };

  void start_query(Context& ctx);
  void maybe_complete(Context& ctx);

  std::vector<NodeId> servers_;
  std::size_t quorum_;
  CodecPtr codec_;
  std::size_t value_size_;

  Phase phase_ = Phase::kIdle;
  std::uint64_t rid_ = 0, op_id_ = 0;
  Tag target_, max_seen_;
  std::set<NodeId> replied_;
  std::optional<Value> full_;
  std::map<NodeId, Bytes> symbols_;
  std::size_t gc_hits_ = 0, restarts_ = 0;
};

// ---- system ---------------------------------------------------------------------

struct Options {
  std::size_t n_servers = 5;
  std::size_t f = 2;  // code dimension k = N - f; needs N >= 2f + 1
  std::size_t n_writers = 1;
  std::size_t n_readers = 1;
  std::size_t value_size = 60;
  std::optional<std::size_t> delta;  // committed versions kept; nullopt=all
  Value initial_value;
};

struct System {
  World world;
  std::vector<NodeId> servers;
  std::vector<NodeId> writers;
  std::vector<NodeId> readers;
  std::size_t quorum = 0;
  CodecPtr codec;
};

System make_system(const Options& opt);

}  // namespace memu::strip

// LDR — layered data replication, modeled on Fan & Lynch, "Efficient
// replication of large data objects" (reference [13] of the paper).
//
// The idea that makes Figure 1's idealized replication line (f + 1, not N)
// achievable: separate METADATA from VALUES. All N servers act as
// directories (they store a tag and the locations of the current value —
// o(log|V|) bits); only the designated replica subset stores values, and a
// write places its value on just f + 1 replicas.
//
//   write: (1) query a directory quorum (N - f) for the latest tag;
//          (2) reserve: ask all replicas, take the first f + 1 responders L;
//          (3) put (tag, value) on L, await all f + 1 acks;
//          (4) update a directory quorum with (tag, L).
//   read:  (1) query a directory quorum -> (tag, L);
//          (2) get from L; every member of L received the put before the
//              directories learned of it, so any live member answers
//              (possibly with a newer value, which regularity permits).
//
// The register is SWSR regular (the original LDR adds metadata write-backs
// for atomicity; we keep the storage-relevant core). Liveness caveat,
// documented in DESIGN.md: step (3) waits on the specific responders of
// step (2), so a replica that crashes *between* reserve and put can block a
// write — the original algorithm re-runs reserve on timeout. All our
// experiments crash servers at time zero, where LDR is live for f replica
// failures (replicas number 2f + 1).
//
// Storage shape this module exists to measure: total value storage
// (f + 1) * B + (metadata o(B) on all N), versus ABD's N * B.
#pragma once

#include <map>
#include <set>
#include <string>
#include <vector>

#include "registers/tag.h"
#include "registers/value.h"
#include "sim/process.h"
#include "sim/world.h"

namespace memu::ldr {

// ---- messages ---------------------------------------------------------------

struct DirQueryReq final : MessagePayload {
  std::uint64_t rid = 0;
  explicit DirQueryReq(std::uint64_t r) : rid(r) {}
  std::string_view type_name() const override { return "ldr.dir_query_req"; }
  StateBits size_bits() const override { return {0, 64}; }

  void encode_content(BufWriter& w) const override {
    w.u64(rid);
  }
};

struct DirQueryResp final : MessagePayload {
  std::uint64_t rid = 0;
  Tag tag;
  std::vector<NodeId> locations;
  DirQueryResp(std::uint64_t r, Tag t, std::vector<NodeId> locs)
      : rid(r), tag(t), locations(std::move(locs)) {}
  std::string_view type_name() const override { return "ldr.dir_query_resp"; }
  StateBits size_bits() const override {
    return {0, 64 + Tag::kBits + 32.0 * static_cast<double>(locations.size())};
  }

  void encode_content(BufWriter& w) const override {
    w.u64(rid);
    tag.encode(w);
    w.u64(locations.size());
    for (NodeId n : locations) w.u32(n.value);
  }
};

struct DirUpdateReq final : MessagePayload {
  std::uint64_t rid = 0;
  Tag tag;
  std::vector<NodeId> locations;
  DirUpdateReq(std::uint64_t r, Tag t, std::vector<NodeId> locs)
      : rid(r), tag(t), locations(std::move(locs)) {}
  std::string_view type_name() const override { return "ldr.dir_update_req"; }
  StateBits size_bits() const override {
    return {0, 64 + Tag::kBits + 32.0 * static_cast<double>(locations.size())};
  }

  void encode_content(BufWriter& w) const override {
    w.u64(rid);
    tag.encode(w);
    w.u64(locations.size());
    for (NodeId n : locations) w.u32(n.value);
  }
};

struct DirUpdateAck final : MessagePayload {
  std::uint64_t rid = 0;
  explicit DirUpdateAck(std::uint64_t r) : rid(r) {}
  std::string_view type_name() const override { return "ldr.dir_update_ack"; }
  StateBits size_bits() const override { return {0, 64}; }

  void encode_content(BufWriter& w) const override {
    w.u64(rid);
  }
};

struct RepReserveReq final : MessagePayload {
  std::uint64_t rid = 0;
  explicit RepReserveReq(std::uint64_t r) : rid(r) {}
  std::string_view type_name() const override { return "ldr.rep_reserve_req"; }
  StateBits size_bits() const override { return {0, 64}; }

  void encode_content(BufWriter& w) const override {
    w.u64(rid);
  }
};

struct RepReserveResp final : MessagePayload {
  std::uint64_t rid = 0;
  explicit RepReserveResp(std::uint64_t r) : rid(r) {}
  std::string_view type_name() const override { return "ldr.rep_reserve_resp"; }
  StateBits size_bits() const override { return {0, 64}; }

  void encode_content(BufWriter& w) const override {
    w.u64(rid);
  }
};

struct RepPutReq final : MessagePayload {
  std::uint64_t rid = 0;
  Tag tag;
  Value value;
  RepPutReq(std::uint64_t r, Tag t, Value v)
      : rid(r), tag(t), value(std::move(v)) {}
  std::string_view type_name() const override { return "ldr.rep_put_req"; }
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

struct RepPutAck final : MessagePayload {
  std::uint64_t rid = 0;
  explicit RepPutAck(std::uint64_t r) : rid(r) {}
  std::string_view type_name() const override { return "ldr.rep_put_ack"; }
  StateBits size_bits() const override { return {0, 64}; }

  void encode_content(BufWriter& w) const override {
    w.u64(rid);
  }
};

// Writer -> every replica after commit: drop any value older than `tag`.
// This is LDR's garbage collection — it is what keeps the steady state at
// exactly f + 1 stored copies.
struct RepReleaseReq final : MessagePayload {
  Tag tag;
  explicit RepReleaseReq(Tag t) : tag(t) {}
  std::string_view type_name() const override { return "ldr.rep_release_req"; }
  StateBits size_bits() const override { return {0, Tag::kBits}; }

  void encode_content(BufWriter& w) const override {
    tag.encode(w);
  }
};

struct RepGetReq final : MessagePayload {
  std::uint64_t rid = 0;
  Tag tag;  // want this tag or newer
  RepGetReq(std::uint64_t r, Tag t) : rid(r), tag(t) {}
  std::string_view type_name() const override { return "ldr.rep_get_req"; }
  StateBits size_bits() const override { return {0, 64 + Tag::kBits}; }

  void encode_content(BufWriter& w) const override {
    w.u64(rid);
    tag.encode(w);
  }
};

struct RepGetResp final : MessagePayload {
  std::uint64_t rid = 0;
  Tag tag;
  bool hit = false;
  Value value;
  RepGetResp(std::uint64_t r, Tag t, bool h, Value v)
      : rid(r), tag(t), hit(h), value(std::move(v)) {}
  std::string_view type_name() const override { return "ldr.rep_get_resp"; }
  StateBits size_bits() const override {
    return {static_cast<double>(value.size()) * 8.0, 64 + Tag::kBits + 1};
  }
  bool value_dependent() const override { return hit; }

  void encode_content(BufWriter& w) const override {
    w.u64(rid);
    tag.encode(w);
    w.boolean(hit);
    w.bytes(value);
  }
};

// ---- server -------------------------------------------------------------------

// Every server is a directory; only some are replicas. A non-replica stores
// metadata only — that asymmetry IS the storage saving.
class Server final : public CloneableProcess<Server> {
 public:
  Server(bool is_replica, Value initial_value,
         std::vector<NodeId> initial_locations)
      : is_replica_(is_replica),
        dir_tag_(Tag::initial()),
        dir_locations_(std::move(initial_locations)),
        rep_tag_(Tag::initial()) {
    if (is_replica_ && !initial_value.empty()) {
      rep_value_ = std::move(initial_value);
      rep_has_value_ = true;
    }
  }

  void on_message(Context& ctx, NodeId from,
                  const MessagePayload& msg) override;

  StateBits state_size() const override {
    StateBits bits{0, 2 * Tag::kBits +
                          32.0 * static_cast<double>(dir_locations_.size())};
    if (is_replica_)
      bits.value_bits += static_cast<double>(rep_value_.size()) * 8.0;
    return bits;
  }

  void write_state(BufWriter& w, const NodeRelabeling&) const override {
    w.boolean(is_replica_);
    dir_tag_.encode(w);
    w.u64(dir_locations_.size());
    for (NodeId n : dir_locations_) w.u32(n.value);
    rep_tag_.encode(w);
    w.boolean(rep_has_value_);
    w.bytes(rep_value_);
  }

  std::string name() const override { return "ldr.server"; }
  bool is_server() const override { return true; }

  bool is_replica() const { return is_replica_; }
  bool holds_value() const { return rep_has_value_; }
  const Tag& replica_tag() const { return rep_tag_; }
  const Tag& directory_tag() const { return dir_tag_; }

 private:
  bool is_replica_;
  // Directory half: latest known (tag, value locations).
  Tag dir_tag_;
  std::vector<NodeId> dir_locations_;
  // Replica half: the single newest (tag, value) put here; released (value
  // dropped) when a newer write commits elsewhere.
  Tag rep_tag_;
  bool rep_has_value_ = false;
  Value rep_value_;
};

// ---- clients -------------------------------------------------------------------

class Writer final : public CloneableProcess<Writer> {
 public:
  Writer(std::vector<NodeId> directories, std::vector<NodeId> replicas,
         std::size_t dir_quorum, std::size_t replica_set_size,
         std::uint32_t writer_id);

  void on_invoke(Context& ctx, const Invocation& inv) override;
  void on_message(Context& ctx, NodeId from,
                  const MessagePayload& msg) override;

  StateBits state_size() const override;
  void write_state(BufWriter& w, const NodeRelabeling& rank) const override;
  std::string name() const override { return "ldr.writer"; }

  enum class Phase : std::uint8_t {
    kIdle, kDirQuery, kReserve, kPut, kDirUpdate
  };
  Phase phase() const { return phase_; }
  bool idle() const { return phase_ == Phase::kIdle; }

 private:
  std::vector<NodeId> directories_;
  std::vector<NodeId> replicas_;
  std::size_t dir_quorum_;
  std::size_t replica_set_size_;  // f + 1
  std::uint32_t writer_id_;

  Phase phase_ = Phase::kIdle;
  std::uint64_t rid_ = 0;
  std::uint64_t op_id_ = 0;
  Value pending_value_;
  Tag tag_;
  Tag max_seen_;
  std::set<NodeId> replied_;
  std::vector<NodeId> chosen_;  // the f + 1 reserve responders
};

class Reader final : public CloneableProcess<Reader> {
 public:
  Reader(std::vector<NodeId> directories, std::size_t dir_quorum);

  void on_invoke(Context& ctx, const Invocation& inv) override;
  void on_message(Context& ctx, NodeId from,
                  const MessagePayload& msg) override;

  StateBits state_size() const override;
  void write_state(BufWriter& w, const NodeRelabeling& rank) const override;
  std::string name() const override { return "ldr.reader"; }
  bool idle() const { return phase_ == Phase::kIdle; }
  std::size_t restarts() const { return restarts_; }

 private:
  enum class Phase : std::uint8_t { kIdle, kDirQuery, kGet };

  void start_query(Context& ctx);

  std::vector<NodeId> directories_;
  std::size_t dir_quorum_;

  Phase phase_ = Phase::kIdle;
  std::uint64_t rid_ = 0;
  std::uint64_t op_id_ = 0;
  Tag target_;
  std::vector<NodeId> locations_;
  std::set<NodeId> replied_;
  std::size_t misses_ = 0;
  std::size_t restarts_ = 0;
};

// ---- system --------------------------------------------------------------------

struct Options {
  std::size_t n_servers = 5;   // all are directories
  std::size_t f = 2;           // replicas number 2f + 1 <= n_servers
  std::size_t n_writers = 1;
  std::size_t n_readers = 1;
  std::size_t value_size = 64;
  Value initial_value;
};

struct System {
  World world;
  std::vector<NodeId> servers;   // all; first 2f + 1 are replicas
  std::vector<NodeId> replicas;
  std::vector<NodeId> writers;
  std::vector<NodeId> readers;
  std::size_t dir_quorum = 0;
};

System make_system(const Options& opt);

}  // namespace memu::ldr

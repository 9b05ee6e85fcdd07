#include "sim/world.h"

#include <algorithm>

namespace memu {

// ---- Context --------------------------------------------------------------

void Context::send(NodeId dst, MessagePtr payload) {
  MEMU_CHECK(payload != nullptr);
  world_.enqueue(ChannelId{self_, dst}, std::move(payload));
}

std::uint64_t Context::step() const { return world_.step_count(); }

void Context::log_op(OpEvent e) {
  e.step = world_.step_count();
  world_.oplog().append(std::move(e));
}

std::uint64_t Context::next_op_id() { return world_.next_op_id(); }

// ---- World ------------------------------------------------------------------

World::World(const World& other) { *this = other; }

World& World::operator=(const World& other) {
  if (this == &other) return *this;
  processes_ = other.processes_;
  channels_ = other.channels_;
  crashed_ = other.crashed_;
  frozen_ = other.frozen_;
  value_blocked_ = other.value_blocked_;
  bulk_blocked_ = other.bulk_blocked_;
  partition_ = other.partition_;
  oplog_ = other.oplog_;
  tracing_ = other.tracing_;
  trace_ = other.trace_;
  step_count_ = other.step_count_;
  next_op_id_ = other.next_op_id_;
  sets_hash_ = other.sets_hash_;
  procs_hash_ = other.procs_hash_;
  proc_fp_ = other.proc_fp_;
  proc_dirty_ = other.proc_dirty_;
  any_proc_dirty_ = other.any_proc_dirty_;
  cowstats::note_world_copy();
  return *this;
}

// Placement-copies `p` into a slot of this thread's slab pool. Process
// hierarchies are single-inheritance with Process first, so the base-class
// pointer clone_into returns is the payload address SlabRef frees through;
// the check catches any future layout that breaks that.
static SlabRef<Process> clone_to_slab(const Process& p) {
  void* mem = local_pool().alloc(p.clone_footprint());
  Process* obj = p.clone_into(mem);
  MEMU_CHECK(static_cast<void*>(obj) == mem);
  return SlabRef<Process>::adopt(obj);
}

NodeId World::add_process(std::unique_ptr<Process> p) {
  MEMU_CHECK(p != nullptr);
  const NodeId id{static_cast<std::uint32_t>(processes_.size())};
  p->set_id(id);
  processes_.push_back(clone_to_slab(*p));
  channels_.resize_nodes(processes_.size());
  // The new process's hash component is settled lazily, like any mutation:
  // fold in a placeholder for fingerprint 0, which the flush replaces.
  proc_fp_.push_back(0);
  procs_hash_ ^= statehash::component(statehash::kProcSeed, id.value, 0);
  proc_dirty_.push_back(0);
  mark_proc_dirty(id);
  return id;
}

Process& World::mutable_process(NodeId id) {
  MEMU_CHECK_MSG(id.value < processes_.size(), "unknown process " << id);
  SlabRef<Process>& p = processes_[id.value];
  // use_count() == 1 means this World is the sole owner: other Worlds can
  // only reach the block through their own process vectors, so no thread
  // can re-acquire it concurrently (the standard COW exclusivity argument;
  // the slab refcount's acquire load carries the same guarantee).
  if (p.use_count() > 1) {
    cowstats::note_process_detach(p->detach_bytes());
    p = clone_to_slab(*p);
  }
  // Conservatively assume the caller mutates: the hash component is
  // re-encoded at the next state_hash() call (O(this process), not
  // O(world)).
  mark_proc_dirty(id);
  return *p;
}

Process& World::process(NodeId id) { return mutable_process(id); }

const Process& World::process(NodeId id) const {
  MEMU_CHECK_MSG(id.value < processes_.size(), "unknown process " << id);
  return *processes_[id.value];
}

std::vector<NodeId> World::server_ids() const {
  std::vector<NodeId> out;
  for (const auto& p : processes_)
    if (p->is_server()) out.push_back(p->id());
  return out;
}

void World::crash(NodeId id) {
  MEMU_CHECK(id.value < processes_.size());
  toggle(crashed_.insert(id), statehash::kCrashedSeed, id);
}

void World::enqueue(ChannelId chan, MessagePtr payload) {
  // Messages from a crashed node are never produced (a crashed node takes no
  // steps), but a node may legitimately send and then crash in the same
  // adversary script; enqueuing checks only validity of endpoints.
  MEMU_CHECK(chan.src.value < processes_.size());
  MEMU_CHECK(chan.dst.value < processes_.size());
  channels_.push(chan, Message{std::move(payload), 0});
}

std::size_t World::first_allowed_index(
    ChannelId chan, const ChannelTable::Queue& queue) const {
  if (queue.empty()) return kNoIndex;
  if (crashed_.contains(chan.dst)) return kNoIndex;  // held; dropped on delivery
  if (frozen_.contains(chan.src) || frozen_.contains(chan.dst)) return kNoIndex;
  if (partition_blocks(chan)) return kNoIndex;
  const bool vblock = value_blocked_.contains(chan.src);
  const bool bblock = bulk_blocked_.contains(chan.src);
  if (!vblock && !bblock) return 0;
  for (std::size_t i = 0; i < queue.size(); ++i) {
    const auto& payload = *queue[i].payload;
    if (vblock && payload.value_dependent()) continue;
    if (bblock && payload.value_bulk()) continue;
    return i;
  }
  return kNoIndex;
}

std::size_t World::first_deliverable_index(ChannelId chan) const {
  const ChannelTable::Queue* queue = channels_.find(chan);
  if (queue == nullptr) return kNoIndex;
  return first_allowed_index(chan, *queue);
}

std::vector<ChannelId> World::deliverable_channels() const {
  std::vector<ChannelId> out;
  for_each_deliverable([&out](ChannelId chan, std::size_t) {
    out.push_back(chan);
  });
  return out;
}

bool World::has_deliverable() const {
  bool found = false;
  channels_.for_each_nonempty(
      [&](ChannelId chan, const ChannelTable::Queue& queue) {
        if (!found && first_allowed_index(chan, queue) != kNoIndex)
          found = true;
      });
  return found;
}

std::size_t World::channel_depth(ChannelId chan) const {
  return channels_.depth(chan);
}

std::size_t World::in_flight() const { return channels_.total_messages(); }

std::vector<std::pair<ChannelId, std::size_t>> World::channel_contents()
    const {
  std::vector<std::pair<ChannelId, std::size_t>> out;
  channels_.for_each_nonempty(
      [&out](ChannelId chan, const ChannelTable::Queue& queue) {
        out.emplace_back(chan, queue.size());
      });
  return out;
}

std::vector<std::size_t> World::deliverable_indices(ChannelId chan) const {
  std::vector<std::size_t> out;
  const ChannelTable::Queue* queue = channels_.find(chan);
  if (queue == nullptr) return out;
  if (crashed_.contains(chan.dst)) return out;
  if (frozen_.contains(chan.src) || frozen_.contains(chan.dst)) return out;
  if (partition_blocks(chan)) return out;
  const bool vblock = value_blocked_.contains(chan.src);
  const bool bblock = bulk_blocked_.contains(chan.src);
  for (std::size_t i = 0; i < queue->size(); ++i) {
    const auto& payload = *(*queue)[i].payload;
    if (vblock && payload.value_dependent()) continue;
    if (bblock && payload.value_bulk()) continue;
    out.push_back(i);
  }
  return out;
}

void World::deliver_next_allowed(ChannelId chan) {
  const ChannelTable::Queue* queue = channels_.find(chan);
  MEMU_CHECK_MSG(queue != nullptr, "no messages on " << chan);
  const std::size_t index = first_allowed_index(chan, *queue);
  MEMU_CHECK_MSG(index != kNoIndex, "no deliverable message on " << chan);
  deliver(chan, index);
}

void World::deliver(ChannelId chan, std::size_t index) {
  const ChannelTable::Queue* queue = channels_.find(chan);
  MEMU_CHECK_MSG(queue != nullptr && index < queue->size(),
                 "no message at " << chan << "[" << index << "]");
  MEMU_CHECK_MSG(!frozen_.contains(chan.src) && !frozen_.contains(chan.dst),
                 "delivery on frozen channel " << chan);
  MEMU_CHECK_MSG(!partition_blocks(chan),
                 "delivery across partitioned channel " << chan);
  MEMU_CHECK_MSG(!value_blocked_.contains(chan.src) ||
                     !(*queue)[index].payload->value_dependent(),
                 "value-dependent delivery from value-blocked " << chan.src);
  MEMU_CHECK_MSG(!bulk_blocked_.contains(chan.src) ||
                     !(*queue)[index].payload->value_bulk(),
                 "bulk-value delivery from bulk-blocked " << chan.src);
  Message msg = channels_.pop(chan, index);

  ++step_count_;
  const bool dropped = crashed_.contains(chan.dst);
  if (tracing_) {
    trace_.record({step_count_, chan, std::string(msg.payload->type_name()),
                   msg.payload->size_bits(), dropped});
  }
  if (dropped) return;  // dropped at a crashed node

  // A delivery the recipient provably ignores (stale quorum response,
  // duplicate ack — see Process::ignores) leaves a byte-identical state
  // without running the handler, so skip the COW detach and the dirty-mark
  // a mutable_process() call would charge for nothing.
  if (processes_[chan.dst.value]->ignores(chan.src, *msg.payload)) return;

  Context ctx(*this, chan.dst);
  mutable_process(chan.dst).on_message(ctx, chan.src, *msg.payload);
}

void World::drop_message(ChannelId chan, std::size_t index) {
  const ChannelTable::Queue* queue = channels_.find(chan);
  MEMU_CHECK_MSG(queue != nullptr && index < queue->size(),
                 "no message at " << chan << "[" << index << "] to drop");
  channels_.pop(chan, index);
}

void World::duplicate_message(ChannelId chan, std::size_t index) {
  const ChannelTable::Queue* queue = channels_.find(chan);
  MEMU_CHECK_MSG(queue != nullptr && index < queue->size(),
                 "no message at " << chan << "[" << index << "] to duplicate");
  Message copy = (*queue)[index];
  channels_.push(chan, std::move(copy));
}

void World::delay_message(ChannelId chan, std::size_t index) {
  const ChannelTable::Queue* queue = channels_.find(chan);
  MEMU_CHECK_MSG(queue != nullptr && index < queue->size(),
                 "no message at " << chan << "[" << index << "] to delay");
  if (index + 1 == queue->size()) return;  // already at the back
  Message msg = channels_.pop(chan, index);
  channels_.push(chan, std::move(msg));
}

void World::log_fault(const std::string& description) {
  OpEvent e;
  e.kind = OpEvent::Kind::kFault;
  e.value.assign(description.begin(), description.end());
  e.step = step_count_;
  oplog_.append(std::move(e));
}

void World::invoke(NodeId client, Invocation inv) {
  MEMU_CHECK(client.value < processes_.size());
  MEMU_CHECK_MSG(!crashed_.contains(client), "invocation at crashed " << client);
  ++step_count_;
  Context ctx(*this, client);
  mutable_process(client).on_invoke(ctx, inv);
}

StateBits World::total_server_storage() const {
  StateBits total;
  for (const auto& p : processes_)
    if (p->is_server() && !crashed_.contains(p->id())) total += p->state_size();
  return total;
}

StateBits World::max_server_storage() const {
  StateBits best;
  for (const auto& p : processes_) {
    if (!p->is_server() || crashed_.contains(p->id())) continue;
    const StateBits s = p->state_size();
    if (s.total() > best.total()) best = s;
  }
  return best;
}

double World::max_server_value_bits() const {
  double best = 0.0;
  for (const auto& p : processes_) {
    if (!p->is_server() || crashed_.contains(p->id())) continue;
    const double v = p->state_size().value_bits;
    if (v > best) best = v;
  }
  return best;
}

Bytes World::canonical_encoding() const {
  BufWriter w;
  encode_canonical_into(w);
  return std::move(w).take();
}

void World::encode_canonical(Bytes& out) const {
  BufWriter w(std::move(out));
  encode_canonical_into(w);
  out = std::move(w).take();
}

void World::encode_canonical_into(BufWriter& w) const {
  cowstats::note_canonical_encoding();
  w.u64(processes_.size());
  for (const auto& p : processes_) w.bytes(p->encode_state());
  w.u64(channels_.nonempty_count());
  channels_.for_each_nonempty(
      [&](ChannelId chan, const ChannelTable::Queue& queue) {
        w.u32(chan.src.value);
        w.u32(chan.dst.value);
        w.u64(queue.size());
        for (const auto& msg : queue) w.bytes(msg.payload->encode());
      });
  const auto encode_set = [&w](const NodeSet& s) {
    w.u64(s.size());
    s.for_each([&w](NodeId id) { w.u32(id.value); });
  };
  encode_set(crashed_);
  encode_set(frozen_);
  encode_set(value_blocked_);
  encode_set(bulk_blocked_);
  encode_set(partition_);
  w.u64(oplog_.size());
  oplog_.for_each([&w](const OpEvent& e) {
    w.u8(static_cast<std::uint8_t>(e.kind));
    w.u32(e.client.value);
    w.u64(e.op_id);
    w.u8(static_cast<std::uint8_t>(e.type));
    w.bytes(e.value);
    // step deliberately omitted: log order alone determines precedence.
  });
}

void World::encode_canonical_relabeled(const std::vector<std::uint32_t>& map,
                                       Bytes& out) const {
  MEMU_CHECK(map.size() == processes_.size());
  cowstats::note_canonical_encoding();
  BufWriter w(std::move(out));
  const NodeRelabeling rank(&map);
  // Mapped-id position -> original index, so processes serialize in the
  // order a physically relabeled World would hold them.
  std::vector<std::uint32_t> inverse(map.size());
  for (std::uint32_t i = 0; i < map.size(); ++i) inverse[map[i]] = i;
  w.u64(processes_.size());
  Bytes scratch;
  for (const std::uint32_t original : inverse) {
    BufWriter proc(std::move(scratch));  // clear, keep capacity across procs
    processes_[original]->write_state(proc, rank);
    w.bytes(proc.data());
    scratch = std::move(proc).take();
  }
  // Channels re-sorted by mapped endpoints (for_each_nonempty yields
  // original (src, dst) order, which the permutation may scramble).
  struct Slot {
    std::uint32_t src, dst;
    const ChannelTable::Queue* queue;
  };
  std::vector<Slot> slots;
  slots.reserve(channels_.nonempty_count());
  channels_.for_each_nonempty(
      [&](ChannelId chan, const ChannelTable::Queue& queue) {
        slots.push_back({rank(chan.src), rank(chan.dst), &queue});
      });
  std::sort(slots.begin(), slots.end(), [](const Slot& a, const Slot& b) {
    return a.src != b.src ? a.src < b.src : a.dst < b.dst;
  });
  w.u64(slots.size());
  for (const Slot& s : slots) {
    w.u32(s.src);
    w.u32(s.dst);
    w.u64(s.queue->size());
    for (const auto& msg : *s.queue) w.bytes(msg.payload->encode());
  }
  const auto encode_set = [&](const NodeSet& s) {
    std::vector<std::uint32_t> ids;
    ids.reserve(s.size());
    s.for_each([&](NodeId id) { ids.push_back(rank(id)); });
    std::sort(ids.begin(), ids.end());
    w.u64(ids.size());
    for (const std::uint32_t id : ids) w.u32(id);
  };
  encode_set(crashed_);
  encode_set(frozen_);
  encode_set(value_blocked_);
  encode_set(bulk_blocked_);
  encode_set(partition_);
  w.u64(oplog_.size());
  oplog_.for_each([&](const OpEvent& e) {
    w.u8(static_cast<std::uint8_t>(e.kind));
    w.u32(rank(e.client));
    w.u64(e.op_id);
    w.u8(static_cast<std::uint8_t>(e.type));
    w.bytes(e.value);
  });
  out = std::move(w).take();
}

void World::flush_proc_hashes() const {
  if (!any_proc_dirty_) return;
  thread_local Bytes scratch;  // one buffer for every re-encoded process
  for (std::size_t i = 0; i < proc_dirty_.size(); ++i) {
    if (!proc_dirty_[i]) continue;
    proc_dirty_[i] = 0;
    // Swap the stale component for the fresh one.
    BufWriter w(std::move(scratch));
    processes_[i]->write_state(w, NodeRelabeling{});
    const std::uint64_t fp = fingerprint64(w.data());
    scratch = std::move(w).take();
    procs_hash_ ^= statehash::component(statehash::kProcSeed, i, proc_fp_[i]) ^
                   statehash::component(statehash::kProcSeed, i, fp);
    proc_fp_[i] = fp;
  }
  any_proc_dirty_ = false;
}

std::uint64_t World::sets_component(const NodeRelabeling& rank) const {
  std::uint64_t sets = 0;
  const auto fold_set = [&](const NodeSet& s, std::uint64_t seed) {
    s.for_each([&](NodeId id) { sets ^= statehash::member(seed, rank(id)); });
  };
  fold_set(crashed_, statehash::kCrashedSeed);
  fold_set(frozen_, statehash::kFrozenSeed);
  fold_set(value_blocked_, statehash::kValueBlockedSeed);
  fold_set(bulk_blocked_, statehash::kBulkBlockedSeed);
  fold_set(partition_, statehash::kPartitionSeed);
  return sets;
}

std::uint64_t World::state_hash() const {
  flush_proc_hashes();
  // Channel and oplog components are maintained inside their containers;
  // combining is O(1). The final mix keeps the XOR-combined value well
  // distributed after single-component changes.
  return mix64(procs_hash_ ^ sets_hash_ ^ channels_.content_hash() ^
               oplog_.content_hash());
}

std::uint64_t World::recompute_state_hash() const {
  std::uint64_t procs = 0;
  for (std::size_t i = 0; i < processes_.size(); ++i) {
    procs ^= statehash::component(
        statehash::kProcSeed, i, fingerprint64(processes_[i]->encode_state()));
  }
  return mix64(procs ^ sets_component(NodeRelabeling{}) ^
               channels_.recompute_content_hash() ^
               oplog_.recompute_content_hash());
}

std::uint64_t World::relabeled_state_hash(
    const std::vector<std::uint32_t>& map) const {
  MEMU_CHECK(map.size() == processes_.size());
  flush_proc_hashes();
  const NodeRelabeling rank(&map);
  thread_local Bytes scratch;  // one buffer for every re-encoded process
  std::uint64_t procs = 0;
  for (std::size_t i = 0; i < processes_.size(); ++i) {
    std::uint64_t fp = proc_fp_[i];
    if (processes_[i]->symmetry() == Process::Symmetry::kMapsIds) {
      BufWriter w(std::move(scratch));
      processes_[i]->write_state(w, rank);
      fp = fingerprint64(w.data());
      scratch = std::move(w).take();
    }
    procs ^= statehash::component(statehash::kProcSeed, map[i], fp);
  }
  return mix64(procs ^ sets_component(rank) ^
               channels_.relabeled_content_hash(rank) ^
               oplog_.content_hash());
}

StateBits World::channel_bits() const {
  StateBits total;
  channels_.for_each_nonempty(
      [&](ChannelId, const ChannelTable::Queue& queue) {
        for (const auto& m : queue) total += m.payload->size_bits();
      });
  return total;
}

// Default Process reactions.
void Process::on_invoke(Context&, const Invocation&) {
  MEMU_UNREACHABLE("invocation delivered to a non-client process");
}

}  // namespace memu

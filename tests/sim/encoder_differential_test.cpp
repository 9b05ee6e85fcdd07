// Differential check of the streamed encoders against the Bytes-returning
// ones. The state hash settles each process's fingerprint by writing its
// state into a reused buffer (Process::write_state), and each message's
// by encoding it into another (MessagePayload::fingerprint); the oracles
// below re-encode each process through the allocating encode_state(), each
// message into a fresh buffer of its own, and recompute_state_hash(). An
// exploration of every algorithm family runs the comparison at every state
// it reaches, so any byte the streamed path writes differently fails here.
#include <gtest/gtest.h>

#include <optional>
#include <sstream>
#include <string>

#include "algo/abd/system.h"
#include "algo/cas/system.h"
#include "algo/gossip/gossip.h"
#include "algo/ldr/ldr.h"
#include "algo/strip/strip.h"
#include "engine/frontier.h"

namespace memu {
namespace {

constexpr std::size_t kValueBytes = 12;

// The payload's canonical encoding in a fresh buffer (no reused scratch).
Bytes encoded(const MessagePayload& payload) {
  BufWriter w;
  payload.encode_into(w);
  return std::move(w).take();
}

std::optional<std::string> streamed_matches_oracle(const World& w) {
  std::ostringstream why;
  if (w.state_hash() != w.recompute_state_hash())
    why << "state_hash differs from recompute_state_hash; ";
  for (std::uint32_t i = 0; i < w.process_count(); ++i) {
    const NodeId id{i};
    if (w.process_fingerprint(id) !=
        fingerprint64(w.process(id).encode_state()))
      why << "process " << i << " fingerprint differs; ";
  }
  w.channels().for_each_nonempty(
      [&](ChannelId chan, const ChannelTable::Queue& queue) {
        for (std::size_t i = 0; i < queue.size(); ++i) {
          const Message& m = queue[i];
          if (m.payload_fp != fingerprint64(encoded(*m.payload)))
            why << chan << "[" << i << "] payload_fp differs; ";
        }
      });
  if (why.str().empty()) return std::nullopt;
  return why.str();
}

// Explores `world` (capped, so every family stays quick) with the oracle
// as the invariant.
void check_everywhere(const World& world, bool reorder = false) {
  ExploreOptions opt;
  opt.max_states = 4000;
  opt.reorder = reorder;
  const ExploreResult r =
      engine::frontier_search(world, opt, streamed_matches_oracle, {});
  EXPECT_TRUE(r.ok) << r.violation;
  EXPECT_GT(r.states_visited, 100u);
}

TEST(EncoderDifferential, Abd) {
  abd::Options opt;
  opt.n_servers = 3;
  opt.f = 1;
  opt.value_size = kValueBytes;
  abd::System sys = abd::make_system(opt);
  sys.world.invoke(sys.writers[0],
                   {OpType::kWrite, unique_value(1, 1, kValueBytes)});
  sys.world.invoke(sys.readers[0], {OpType::kRead, {}});
  check_everywhere(sys.world);
  check_everywhere(sys.world, /*reorder=*/true);
}

TEST(EncoderDifferential, Cas) {
  for (const std::size_t k : {1, 2}) {
    cas::Options opt;
    opt.n_servers = 4;
    opt.f = 1;
    opt.k = k;
    opt.n_writers = 1;
    opt.value_size = kValueBytes;
    cas::System sys = cas::make_system(opt);
    sys.world.invoke(sys.writers[0],
                     {OpType::kWrite, unique_value(1, 1, kValueBytes)});
    sys.world.invoke(sys.readers[0], {OpType::kRead, {}});
    check_everywhere(sys.world);
  }
}

TEST(EncoderDifferential, Ldr) {
  ldr::Options opt;
  opt.n_servers = 3;
  opt.f = 1;
  opt.value_size = kValueBytes;
  ldr::System sys = ldr::make_system(opt);
  sys.world.invoke(sys.writers[0],
                   {OpType::kWrite, unique_value(1, 1, kValueBytes)});
  sys.world.invoke(sys.readers[0], {OpType::kRead, {}});
  check_everywhere(sys.world);
}

TEST(EncoderDifferential, Strip) {
  strip::Options opt;
  opt.n_servers = 3;
  opt.f = 1;
  opt.value_size = kValueBytes;
  strip::System sys = strip::make_system(opt);
  sys.world.invoke(sys.writers[0],
                   {OpType::kWrite, unique_value(1, 1, kValueBytes)});
  sys.world.invoke(sys.readers[0], {OpType::kRead, {}});
  check_everywhere(sys.world);
}

TEST(EncoderDifferential, Gossip) {
  gossip::Options opt;
  opt.n_servers = 3;
  opt.f = 1;
  opt.value_size = kValueBytes;
  gossip::System sys = gossip::make_system(opt);
  sys.world.invoke(sys.writer,
                   {OpType::kWrite, unique_value(1, 1, kValueBytes)});
  sys.world.invoke(sys.readers[0], {OpType::kRead, {}});
  check_everywhere(sys.world);
}

}  // namespace
}  // namespace memu

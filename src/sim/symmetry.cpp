#include "sim/symmetry.h"

#include <algorithm>
#include <cstddef>
#include <numeric>
#include <string>
#include <utility>

#include "common/hash.h"
#include "sim/process.h"
#include "sim/world.h"

namespace memu::symmetry {

namespace {

// Order-sensitive 64-bit fold step: (a, b) and (b, a) fold differently.
std::uint64_t fold(std::uint64_t h, std::uint64_t x) { return mix64(h ^ x); }

// The canonical map, written into `map` (resized; capacity kept). The one
// implementation behind both dedupe keys.
void fill_canonical_map(const World& w, const Groups& g,
                        std::vector<std::uint32_t>& map) {
  const auto n = static_cast<std::uint32_t>(w.process_count());
  map.resize(n);
  std::iota(map.begin(), map.end(), 0u);
  thread_local std::vector<std::uint64_t> folds;  // src * n + dst
  thread_local std::vector<std::pair<std::uint64_t, std::uint32_t>> members;
  thread_local Bytes scratch;
  w.channel_queue_folds(folds);
  // Signatures fingerprint each member's own state under a relabeling
  // that collapses every group to its minimal id: group peers are
  // indistinguishable placeholders at signing time, so a server whose
  // state happens to reference a symmetric peer still signs identically
  // across the orbit. An id-free server's collapsed encoding is its plain
  // encoding, whose fingerprint the state hash has already settled.
  const NodeRelabeling collapsed(&g.collapse);
  for (const std::vector<std::uint32_t>& ids : g.symmetric) {
    members.clear();
    for (const std::uint32_t id : ids) {
      const NodeId nid{id};
      std::uint64_t sig = std::uint64_t{w.is_crashed(nid)} |
                          std::uint64_t{w.is_frozen(nid)} << 1 |
                          std::uint64_t{w.is_value_blocked(nid)} << 2 |
                          std::uint64_t{w.is_bulk_blocked(nid)} << 3 |
                          std::uint64_t{w.in_partition(nid)} << 4;
      const Process& p = w.process(nid);
      if (p.symmetry() == Process::Symmetry::kMapsIds) {
        BufWriter sw(std::move(scratch));
        p.encode_state_relabeled(collapsed, sw);
        sig = fold(sig, fingerprint64(sw.data()));
        scratch = std::move(sw).take();
      } else {
        sig = fold(sig, w.process_fingerprint(nid));
      }
      // Channel-queue folds in both directions: keyed by the counterpart
      // for asymmetric counterparts, XOR-aggregated (direction-sensitive,
      // peer-agnostic) over same-group peers so the signature stays
      // invariant under permutations of the group itself.
      std::uint64_t peer_agg = 0;
      for (std::uint32_t other = 0; other < n; ++other) {
        if (other == id) continue;
        const std::uint64_t out_fold = folds[id * n + other];
        const std::uint64_t in_fold = folds[other * n + id];
        if (g.collapse[other] == g.collapse[id]) {
          peer_agg ^= mix64(mix64(out_fold ^ 0x9e3779b97f4a7c15ull) ^ in_fold);
        } else {
          sig = fold(fold(fold(sig, other), out_fold), in_fold);
        }
      }
      members.emplace_back(fold(sig, peer_agg), id);
    }
    // Tie-break on id: not orbit-invariant, so a signature collision can
    // make two symmetric Worlds pick different representatives. That only
    // UNDER-merges (two orbit members survive); equal keys still certify a
    // genuine relabeling, so soundness is unaffected.
    std::sort(members.begin(), members.end());
    for (std::size_t pos = 0; pos < ids.size(); ++pos) {
      map[members[pos].second] = ids[pos];  // ids ascending: rank by order
    }
  }
}

}  // namespace

Groups::Groups(const World& w) : collapse(w.process_count()) {
  std::iota(collapse.begin(), collapse.end(), 0u);
  std::vector<std::pair<std::string, std::vector<std::uint32_t>>> roles;
  for (std::uint32_t i = 0; i < w.process_count(); ++i) {
    const Process& p = w.process(NodeId{i});
    if (!p.is_server()) continue;
    std::string name = p.name();
    auto role = std::find_if(roles.begin(), roles.end(),
                             [&](const auto& r) { return r.first == name; });
    if (role == roles.end()) role = roles.insert(roles.end(), {name, {}});
    role->second.push_back(i);
    collapse[i] = role->second.front();
  }
  for (auto& [name, ids] : roles) {
    if (ids.size() >= 2) symmetric.push_back(std::move(ids));
  }
}

bool eligible(const World& w) {
  if (w.process_count() == 0) return false;
  for (std::uint32_t i = 0; i < w.process_count(); ++i) {
    if (w.process(NodeId{i}).symmetry() == Process::Symmetry::kNone) {
      return false;
    }
  }
  return !Groups(w).symmetric.empty();
}

std::vector<std::uint32_t> canonical_map(const World& w, const Groups& g) {
  std::vector<std::uint32_t> map;
  fill_canonical_map(w, g, map);
  return map;
}

void canonical_encoding(const World& w, const Groups& g, Bytes& out) {
  thread_local std::vector<std::uint32_t> map;
  fill_canonical_map(w, g, map);
  w.encode_canonical_relabeled(map, out);
}

std::uint64_t canonical_fingerprint(const World& w, const Groups& g) {
  thread_local std::vector<std::uint32_t> map;
  fill_canonical_map(w, g, map);
  return w.relabeled_state_hash(map);
}

std::uint64_t canonical_fingerprint(const World& w) {
  return canonical_fingerprint(w, Groups(w));
}

}  // namespace memu::symmetry

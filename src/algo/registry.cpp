#include "algo/registry.h"

#include <stdexcept>
#include <utility>

#include "algo/abd/system.h"
#include "algo/cas/system.h"
#include "algo/gossip/gossip.h"
#include "algo/ldr/ldr.h"
#include "algo/strip/strip.h"

namespace memu::algo {

namespace {

// The Options fields every family shares, copied from the spec.
template <class Options>
Options options(const Spec& s) {
  Options o;
  o.n_servers = s.n_servers;
  o.f = s.f;
  o.n_readers = s.n_readers;
  o.value_size = s.value_size;
  if constexpr (requires { o.n_writers; }) o.n_writers = s.n_writers;
  return o;
}

template <class System>
Deployment deploy(System&& sys) {
  return {std::move(sys.world), std::move(sys.servers), std::move(sys.writers),
          std::move(sys.readers)};
}

Deployment build_abd(const Spec& s, bool single_writer, bool write_back) {
  auto o = options<abd::Options>(s);
  if (single_writer) o.n_writers = 1;
  o.single_writer = single_writer;
  o.read_write_back = write_back;
  return deploy(abd::make_system(o));
}

Deployment build_cas(const Spec& s, std::optional<std::size_t> delta,
                     bool hash_phase) {
  auto o = options<cas::Options>(s);
  o.k = s.k;
  o.delta = delta;
  o.hash_phase = hash_phase;
  return deploy(cas::make_system(o));
}

Deployment build_gossip(const Spec& s) {
  gossip::System sys = gossip::make_system(options<gossip::Options>(s));
  return {std::move(sys.world), std::move(sys.servers), {sys.writer},
          std::move(sys.readers)};
}

Deployment build_strip(const Spec& s) {
  auto o = options<strip::Options>(s);
  o.delta = s.delta;
  return deploy(strip::make_system(o));
}

// The family's build put a Writer at every writer id, so the static_cast is
// exact.
template <class Writer, auto kPhase>
bool in_phase(const World& w, NodeId writer) {
  return static_cast<const Writer&>(w.process(writer)).phase() == kPhase;
}

constexpr auto kAbdStore = in_phase<abd::Writer, abd::Writer::Phase::kStore>;
constexpr auto kCasPreWrite =
    in_phase<cas::Writer, cas::Writer::Phase::kPreWrite>;

constexpr Family kFamilies[] = {
    {.name = "abd",
     .reads = kWriters,
     .build = [](const Spec& s) { return build_abd(s, false, true); },
     .in_value_phase = kAbdStore},
    // The one-phase SWMR writer.
    {.name = "abd-swmr",
     .build = [](const Spec& s) { return build_abd(s, true, true); },
     .in_value_phase = kAbdStore},
    // One-phase reads: regular, not atomic.
    {.name = "abd-regular",
     .reads = kWriters,
     .promises = CheckKind::kRegularSwsr,
     .build = [](const Spec& s) { return build_abd(s, false, false); },
     .in_value_phase = kAbdStore},
    {.name = "cas",
     .reads = kK | kWriters,
     .build = [](const Spec& s) { return build_cas(s, std::nullopt, false); },
     .in_value_phase = kCasPreWrite},
    // CAS with garbage collection; delta defaults to 1.
    {.name = "casgc",
     .reads = kK | kWriters | kDelta,
     .build =
         [](const Spec& s) {
           return build_cas(s, s.delta.value_or(1), false);
         },
     .in_value_phase = kCasPreWrite},
    // CAS announcing shard hashes before its pre-write: a second,
    // o(log|V|)-sized value-dependent phase.
    {.name = "cas-hash",
     .reads = kK | kWriters,
     .bulk_probes = true,
     .build = [](const Spec& s) { return build_cas(s, std::nullopt, true); },
     .in_value_phase = kCasPreWrite},
    // One writer; servers gossip values to each other.
    {.name = "gossip",
     .promises = CheckKind::kRegularSwsr,
     .build = build_gossip},
    {.name = "ldr",
     .reads = kWriters,
     .promises = CheckKind::kRegularSwsr,
     .build = [](const Spec& s) {
       return deploy(ldr::make_system(options<ldr::Options>(s)));
     },
     .in_value_phase = in_phase<ldr::Writer, ldr::Writer::Phase::kPut>},
    {.name = "strip",
     .reads = kWriters | kDelta,
     .build = build_strip,
     .in_value_phase = in_phase<strip::Writer, strip::Writer::Phase::kStore>},
};

}  // namespace

std::span<const Family> families() { return kFamilies; }

std::string family_names() {
  std::string out;
  for (const Family& fam : kFamilies) {
    if (!out.empty()) out += ' ';
    out += fam.name;
  }
  return out;
}

const Family* find(std::string_view name) {
  for (const Family& fam : kFamilies)
    if (fam.name == name) return &fam;
  return nullptr;
}

const Family& family(std::string_view name) {
  if (const Family* fam = find(name)) return *fam;
  throw std::runtime_error("unknown algorithm '" + std::string(name) +
                           "' (registered: " + family_names() + ")");
}

}  // namespace memu::algo

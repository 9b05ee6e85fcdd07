// The algorithm registry: one table, one entry per family name.
//
// Every driver builds a family by name through this table: the memu CLI,
// fuzz campaigns, the proof harnesses' system-under-test factories and the
// parked/steady storage measurements. An entry holds all a driver needs to
// know about a family without including its headers:
//
//   * how to build it from the common Spec (by calling the family's own
//     make_system) and which Spec fields that build reads;
//   * the consistency property it promises;
//   * the writer phase in which its value-dependent messages are on the
//     wire — where Theorem 6.5 and the parked-writes driver stop a writer;
//   * whether Theorem 6.5's directed probes bulk-block the candidate
//     writer instead of value-blocking it.
//
// Registering a family is one entry in registry.cpp (docs/ALGORITHMS.md).
#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "consistency/checker.h"
#include "sim/world.h"

namespace memu::algo {

// The common deployment parameters. Every family reads n_servers, f,
// n_readers and value_size; the Field bits of Family::reads say which of
// the rest it reads. A field a family does not read is ignored: a
// single-writer family deploys one writer whatever n_writers says.
struct Spec {
  std::size_t n_servers = 5;
  std::size_t f = 2;
  std::size_t k = 0;  // code dimension; 0 = max (N - 2f)
  std::size_t n_writers = 1;
  std::size_t n_readers = 1;
  std::size_t value_size = 16;  // bytes
  // Bound on retained versions: casgc's GC bound (unset = 1), strip's
  // committed versions kept (unset = all).
  std::optional<std::size_t> delta = std::nullopt;
};

// The Spec fields only some families read.
enum Field : unsigned { kK = 1u << 0, kWriters = 1u << 1, kDelta = 1u << 2 };

// A built family. Process state lives in `world`; the id lists name the
// processes in role order.
struct Deployment {
  World world;
  std::vector<NodeId> servers;
  std::vector<NodeId> writers;
  std::vector<NodeId> readers;
};

struct Family {
  std::string_view name;
  unsigned reads = 0;  // Field bits
  CheckKind promises = CheckKind::kAtomic;
  // Probes bulk-block the candidate writer (its o(log|V|)-sized hash
  // messages keep flowing) instead of value-blocking it: the Section 6.5
  // conjecture's relaxation of Assumption 3(b).
  bool bulk_probes = false;
  Deployment (*build)(const Spec&) = nullptr;
  // True when `writer` has just entered its value-dependent phase (its
  // value messages are on the channels). Null when the family has no
  // single such writer phase: it cannot run Theorem 6.5 or be parked.
  bool (*in_value_phase)(const World&, NodeId writer) = nullptr;

  bool reads_field(Field field) const { return (reads & field) != 0; }
};

// Every registered family, in name order.
std::span<const Family> families();

// The registered names, space-separated, in name order.
std::string family_names();

// The family registered as `name`, or nullptr.
const Family* find(std::string_view name);

// The family registered as `name`; throws std::runtime_error naming every
// registered family when there is none.
const Family& family(std::string_view name);

}  // namespace memu::algo

// System-under-test adapter for the adversary harness.
//
// The lower-bound constructions of the paper quantify over an *arbitrary*
// algorithm A with one write client and one read client (SWSR). A Sut wraps
// any concrete algorithm (ABD, CAS, ...) behind that shape, plus a factory
// that builds a fresh instance per constructed execution — the proofs build
// one execution per value (Theorem B.1) or per ordered value pair
// (Theorem 4.1).
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "algo/registry.h"
#include "sim/world.h"

namespace memu::adversary {

struct Sut {
  World world;
  std::vector<NodeId> servers;
  NodeId writer;  // the single write client
  NodeId reader;  // the single read client
  std::size_t f = 0;
  std::size_t value_size = 16;  // bytes
  std::string algorithm;        // for reports
};

using SutFactory = std::function<Sut()>;

// Any registered family (algo/registry.h) with one writer and one reader.
// k (code dimension; 0 = N - 2f) and delta (retention bound) are read only
// by the families that read them. The name is resolved here, once, not on
// every build.
SutFactory sut_factory(std::string_view algo, std::size_t n, std::size_t f,
                       std::size_t k, std::size_t value_size,
                       std::optional<std::size_t> delta = std::nullopt);

// The per-family shorthands below are sut_factory calls.

// ABD with a single (two-phase MWMR-protocol) writer and one reader.
SutFactory abd_sut_factory(std::size_t n, std::size_t f,
                           std::size_t value_size);

// CAS with one writer and one reader; k = 0 means N - 2f. delta: CASGC
// garbage-collection bound (nullopt = plain CAS).
SutFactory cas_sut_factory(std::size_t n, std::size_t f, std::size_t k,
                           std::size_t value_size,
                           std::optional<std::size_t> delta);

// Gossip-based regular register (servers talk to each other): the algorithm
// class that needs Theorem 5.1's construction rather than Theorem 4.1's.
SutFactory gossip_sut_factory(std::size_t n, std::size_t f,
                              std::size_t value_size);

// LDR (Fan-Lynch layered data replication): values on f + 1 replicas,
// metadata on all N directories — a 4-phase write protocol, still within
// Theorem 6.5's single-value-phase class.
SutFactory ldr_sut_factory(std::size_t n, std::size_t f,
                           std::size_t value_size);

// StripStore (optimistic coding a la [12]): full-value stores, servers
// strip to an RS(N, N - f) symbol on commit.
SutFactory strip_sut_factory(std::size_t n, std::size_t f,
                             std::size_t value_size);

// Concatenated canonical encoding of the live (non-crashed) servers' states;
// the "server state vector" of the proofs.
Bytes live_state_vector(const World& w);

}  // namespace memu::adversary

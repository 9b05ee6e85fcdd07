// Executable lower-bound proofs.
//
// These harnesses run the execution constructions from the paper against a
// real algorithm (any SWSR Sut) and machine-check the counting arguments:
//
// * verify_singleton_injectivity (Theorem B.1): one execution alpha(v) per
//   value v — crash f servers, write v, quiesce. The map
//   v -> (live server state vector) must be injective, which is precisely
//   why  prod |S_i| >= |V|  over any N - f servers.
//
// * find_critical_pair / verify_pair_injectivity (Theorem 4.1): one
//   execution alpha(v1, v2) per ordered pair of distinct values — write v1,
//   quiesce (point P0), write v2 step by step. Valency probing locates the
//   critical points (Q1, Q2): the last point where a solo read (writer
//   frozen) returns v1, and its successor where it returns v2. The map
//   (v1, v2) -> (states at Q1, changed server, its state at Q2) must be
//   injective, which is why
//   prod |S_i| * (N - f) * max |S_i| >= |V| (|V| - 1).
//
// The probes are deterministic, so injectivity failures would be genuine
// counterexamples to the counting argument, not schedule noise.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "adversary/sut.h"
#include "adversary/valency.h"
#include "registers/value.h"

namespace memu::adversary {

// ---- Theorem B.1 harness -----------------------------------------------------

struct SingletonReport {
  std::size_t domain = 0;           // |V| exercised
  std::size_t distinct_states = 0;  // distinct live state vectors observed
  bool injective = false;           // distinct_states == domain
  bool probes_consistent = false;   // every alpha(v) probe returned v
  double bound_log2 = 0;            // log2(domain): Theorem B.1 RHS
  // Distinct per-server states observed across the executions; the empirical
  // counterpart of |S_i| (sum of log2 of these >= bound_log2 if injective).
  std::vector<std::size_t> per_server_distinct;
  double certificate_log2 = 0;  // sum_i log2(per_server_distinct[i])
};

// `crash_indices`: which servers (by position in Sut::servers) fail at the
// start of every constructed execution — the theorems quantify over EVERY
// f-subset; empty = the last f (the proofs' canonical choice).
SingletonReport verify_singleton_injectivity(
    const SutFactory& factory, std::size_t domain_size,
    const ProbeOptions& probe = {},
    const std::vector<std::size_t>& crash_indices = {});

// Theorem B.1 held on this run: the map is injective, every alpha(v) probe
// read v back, and certificate_log2 >= bound_log2.
bool holds(const SingletonReport& r);

// ---- Theorem 4.1 harness -------------------------------------------------------

struct CriticalPointInfo {
  bool found = false;           // critical pair located
  bool probes_consistent = false;  // Q1 probe == v1 and Q2 probe == v2
  bool single_change = false;   // exactly one server changed Q1 -> Q2
  NodeId changed_server;        // the server s of the proof
  std::uint64_t flip_step = 0;  // world step count at Q2
  std::uint64_t steps_in_write2 = 0;  // deliveries between P0 and Q2
  Bytes signature;              // ~S(v1,v2)
  // Structured components of ~S, for the empirical counting certificate.
  std::map<std::uint32_t, Bytes> q1_states;  // live server states at Q1
  Bytes q2_changed_state;                    // state of s at Q2
};

// Runs alpha(v1, v2) on a fresh Sut and locates the critical points.
CriticalPointInfo find_critical_pair(
    const SutFactory& factory, const Value& v1, const Value& v2,
    const ProbeOptions& probe = {},
    const std::vector<std::size_t>& crash_indices = {});

struct PairReport {
  std::size_t domain = 0;        // m values => m(m-1) ordered pairs
  std::size_t pairs = 0;
  std::size_t distinct_signatures = 0;
  bool injective = false;        // distinct_signatures == pairs
  bool all_found = false;        // a critical pair existed in every execution
  bool all_consistent = false;   // all probes returned the expected values
  bool all_single_change = false;
  double bound_log2 = 0;         // log2(m (m - 1)): Theorem 4.1's count

  // Empirical counting certificate: distinct states observed per live
  // server at Q1 (the |S_i| witnesses), and distinct (changed server,
  // state-at-Q2) pairs (the (N-f) * max |S_i| factor). Injectivity implies
  //   sum_i log2(q1 counts) + log2(q2 pair count) >= bound_log2,
  // the executable form of Theorem 4.1's inequality.
  std::vector<std::size_t> per_server_q1_distinct;
  std::size_t q2_pair_distinct = 0;
  double certificate_log2 = 0;  // the left-hand side above
};

PairReport verify_pair_injectivity(
    const SutFactory& factory, std::size_t domain_size,
    const ProbeOptions& probe = {},
    const std::vector<std::size_t>& crash_indices = {});

// Theorem 4.1 (5.1 under the gossip-flushing probe) held on this run: every
// execution had a critical pair whose probes flipped v1 -> v2 with exactly
// one server changing (Lemma 4.8), the map is injective, and
// certificate_log2 >= bound_log2.
bool holds(const PairReport& r);

}  // namespace memu::adversary

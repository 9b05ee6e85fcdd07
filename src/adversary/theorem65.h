// Theorem 6.5, executed.
//
// The proof constructs, for every tuple of nu distinct values, an execution
// alpha^v(sigma, a_1, ..., a_nu):
//   * nu writers are each driven exactly to their single value-dependent
//     phase; their coded/value messages sit undelivered on the channels
//     (point P_0);
//   * the last f + 1 - nu servers crash, leaving N - f + nu - 1 live;
//   * the adversary then delivers value messages in nu stages: stage j
//     delivers the messages of every writer except sigma(1..j-1) to the
//     server prefix (a_{j-1}, a_j].
// Lemma 6.10 chooses sigma and the a_j greedily: a_j is the smallest prefix
// that makes some not-yet-used value v_i recoverable with the writers
// sigma(1..j-1) and C_i barred from further value-dependent actions; sigma(j)
// breaks ties by the value order.
//
// We realize "(j, C0)-valent" with a DIRECTED probe: clone the point, freeze
// every writer except the candidate (delaying all their traffic is a legal
// asynchronous schedule), VALUE-BLOCK the candidate (it may still send
// metadata, e.g. a CAS finalize — exactly what the paper's definition
// permits), run a solo read, and check it returns the candidate's value.
// For algorithms that do not jointly encode different versions (all of
// ours), this decides valency; for hypothetical cross-version-coding
// algorithms it is an under-approximation, which we report as a search
// failure rather than a wrong answer.
//
// The counting step then follows by checking that the map
//   value tuple -> (sigma, a_1..a_nu, live server states at P_nu)
// is injective, which is the content of
//   (nu!) (N-f+nu-1)^nu  prod_n |S_n|  >=  |V_0|.
#pragma once

#include <cstdint>
#include <functional>
#include <string_view>
#include <vector>

#include "algo/registry.h"
#include "registers/value.h"
#include "sim/world.h"

namespace memu::adversary {

// Multi-writer system-under-test: nu write clients, one reader
// (readers[0]).
struct MwSut : algo::Deployment {
  std::size_t f = 0;
  std::size_t value_size = 16;
  // The family: its value-dependent writer phase, where each writer is
  // parked, and whether probes bulk-block (algo::Family::bulk_probes).
  const algo::Family* family = nullptr;
};

using MwSutFactory = std::function<MwSut()>;

// Any registered family (algo/registry.h) with nu writers and one reader.
// k is the code dimension of the coded families (0 = N - 2f); the others
// ignore it. The name is resolved here, once, not on every build; a family
// without a value-dependent writer phase (algo::Family::in_value_phase)
// fails here too. E.g. mw_factory("cas-hash", 5, 1, 3, 2, 18) is CAS with
// its hash-announce phase — the algorithm class of the paper's Section 6.5
// conjecture, probed with bulk-blocking probes.
MwSutFactory mw_factory(std::string_view algo, std::size_t n, std::size_t f,
                        std::size_t k, std::size_t nu, std::size_t value_size);

struct StagedExecution {
  bool parked = false;     // all writers reached their value phase
  bool completed = false;  // all nu stages found a (a_j, sigma(j))
  std::vector<std::size_t> a;      // 1-based prefix ends, weakly increasing
  std::vector<std::size_t> sigma;  // writer index recovered per stage
  // (sigma, a, live server states at every analysis point P_i and at the
  // final point). Injective for ANY algorithm: each stage's analysis point
  // pins the stage's value.
  Bytes signature;
  // (sigma, a, live server states at the final point P_nu only) — the
  // paper's exact counting map. Injective for algorithms whose servers
  // never destroy received value information (e.g. CAS, which accretes
  // coded elements), but NOT for overwriting storage like ABD, where the
  // final point has forgotten all but the tag-dominant value.
  Bytes single_point_signature;
};

// Runs the full staged construction for one value tuple (values[i] is
// writer i's value).
StagedExecution run_staged_execution(const MwSutFactory& factory,
                                     const std::vector<Value>& values);

struct Theorem65Report {
  std::size_t domain = 0;        // values per writer slot
  std::size_t tuples = 0;        // ordered tuples of distinct values
  std::size_t distinct = 0;      // distinct signatures
  std::size_t live_servers = 0;  // N - f + nu - 1
  std::size_t nu = 0;
  bool all_parked = false;
  bool all_completed = false;
  bool a_monotone = false;  // a_1 <= a_2 <= ... (weak, per the sets A_i)
  bool injective = false;   // multi-point signatures all distinct
  // The paper's single-final-point map: distinct signatures / injective.
  std::size_t single_point_distinct = 0;
  bool single_point_injective = false;
  double bound_log2 = 0;  // log2(#tuples): the counting step's RHS
};

// Runs the construction over every ordered tuple of `nu` distinct values
// from a `domain`-element value set and checks injectivity.
Theorem65Report verify_staged_injectivity(const MwSutFactory& factory,
                                          std::size_t domain, std::size_t nu);

// Theorem 6.5 held on this run: every writer parked in its value phase,
// every staged execution completed with weakly increasing prefixes, and the
// multi-point map is injective. The paper's single-point map is reported,
// not required: overwriting storage (ABD, LDR) fails it by design.
bool holds(const Theorem65Report& r);

}  // namespace memu::adversary

// Consistency checkers for read-write register histories with unique write
// values.
//
// * check_atomic       — full linearizability (Herlihy-Wing atomicity) via a
//   Wing-Gong-style search with memoization; sound and complete for
//   histories of at most 64 operations.
// * check_regular_swsr — Lamport regularity for single-writer histories:
//   every read returns the last write completed before it or an overlapping
//   write (the safety property Theorems 4.1/5.1/B.1 assume).
// * check_weakly_regular — the MWMR weak regularity of Shao-Welch used by
//   Theorem 6.5: reads must be explainable by terminating writes plus some
//   subset of the pending ones, respecting real-time order. Implemented as
//   the same linearization search with reads-only obligations.
//
// The initial value v0 is modeled as a virtual write that precedes
// everything.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "consistency/history.h"

namespace memu {

struct CheckResult {
  bool ok = true;
  std::string violation;  // human-readable description when !ok
  // The operation where the history first leaves the legal space, when the
  // checker can localize it: for a read of a never-written value, that
  // read; for a failed linearization search, the earliest-invoked required
  // operation missing from the deepest frontier the search linearized
  // (deterministic — the search order is fixed). Fuzz counterexample
  // reports lead with this op so a 40-operation history points at one
  // suspect instead of "no linearization exists".
  std::optional<std::uint64_t> first_divergence_op;

  static CheckResult pass() { return {}; }
  static CheckResult fail(std::string why) {
    return {false, std::move(why), std::nullopt};
  }
  static CheckResult fail_at(std::string why, std::uint64_t op_id) {
    return {false, std::move(why), op_id};
  }
};

// A linearization witness: the operation ids (History order ids) in a legal
// serialization order, when one exists.
struct Linearization {
  bool exists = false;
  std::vector<std::uint64_t> order;  // op ids, in linearized order
};

// Like check_atomic, but also returns a concrete witness order on success —
// useful for debugging a surprising PASS and for explaining histories.
Linearization find_linearization(const History& h, const Value& initial);

// Linearizability of a register history. `initial` is v0.
// Pending writes may take effect; pending reads are ignored.
CheckResult check_atomic(const History& h, const Value& initial);

// Lamport-regularity for single-writer histories (writes are totally ordered
// by real time; checks that every completed read returns the latest
// preceding write's value or that of an overlapping write).
CheckResult check_regular_swsr(const History& h, const Value& initial);

// Weak regularity (MWMR): there must exist a serialization of all
// terminating writes, a subset of non-terminating writes, and each read,
// that respects real-time order and register semantics. Equivalent to
// checking linearizability where reads impose the only obligations but
// *each read individually* may choose its own serialization witness.
CheckResult check_weakly_regular(const History& h, const Value& initial);

// The three properties above, as a value: what a family promises
// (algo/registry.h) and what a fuzz campaign asserts (fuzz/plan.h).
enum class CheckKind : std::uint8_t { kAtomic, kRegularSwsr, kWeaklyRegular };

// Runs the checker `kind` names.
CheckResult run_check(CheckKind kind, const History& h, const Value& initial);

// "atomic", "regular-swsr", "weakly-regular": the names fuzz traces and
// the CLIs use. check_kind_from_name CHECK-fails on any other name.
std::string check_kind_name(CheckKind k);
CheckKind check_kind_from_name(const std::string& name);

}  // namespace memu

// The one place MEMU_* environment overrides are named and parsed.
//
// Convention: every tool/bench knob that can come from the environment is
// spelled MEMU_<NAME>, parsed here, and resolved with the FLAG-WINS rule —
// an explicit command-line flag beats the environment, which beats the
// built-in default. Before this header each bench hand-rolled its own
// getenv + strtoull (which silently read "banana" as 0); these helpers
// parse loudly instead: a set-but-malformed override throws ContractError
// naming the variable, because a smoke job that silently ignores its
// override runs the full-size workload and times out mysteriously.
//
// Current overrides:
//   MEMU_EXPLORE_MAX_STATES  caps exploration state counts (bench smokes)
//   MEMU_FUZZ_WALKS          shrinks fuzz campaigns      (bench smokes)
//   MEMU_MEM_BUDGET          default --mem for memu_sweep / bench tools
#pragma once

#include <cstdint>
#include <cstdlib>
#include <optional>
#include <string>

#include "common/arena.h"
#include "common/check.h"

namespace memu::env {

inline constexpr const char* kExploreMaxStates = "MEMU_EXPLORE_MAX_STATES";
inline constexpr const char* kFuzzWalks = "MEMU_FUZZ_WALKS";
inline constexpr const char* kMemBudget = "MEMU_MEM_BUDGET";

// The raw string, or nullopt when unset. An empty value counts as unset
// (the conventional shell way to disable an override without unsetting it).
inline std::optional<std::string> raw(const char* name) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return std::nullopt;
  return std::string(v);
}

// A decimal count: ASCII digits only, no sign, no whitespace, no suffix,
// and no wrap past 2^64 - 1. Anything else throws ContractError naming
// `what` (a flag like "--threads" or a variable like "MEMU_FUZZ_WALKS").
// Command-line count flags and the env overrides below share this one
// parser, so "-1", "12abc" and "" fail loudly everywhere.
inline std::uint64_t parse_count(const std::string& text, const char* what) {
  MEMU_CHECK_MSG(!text.empty(), what << " is empty");
  std::uint64_t v = 0;
  for (const char c : text) {
    MEMU_CHECK_MSG(c >= '0' && c <= '9',
                   what << "='" << text << "' is not a decimal count");
    const std::uint64_t digit = static_cast<std::uint64_t>(c - '0');
    MEMU_CHECK_MSG(v <= (UINT64_MAX - digit) / 10,
                   what << "='" << text << "' overflows");
    v = v * 10 + digit;
  }
  return v;
}

// A positive decimal count. Unset -> nullopt; set but not a positive
// decimal -> ContractError naming the variable.
inline std::optional<std::uint64_t> u64(const char* name) {
  const auto s = raw(name);
  if (!s.has_value()) return std::nullopt;
  const std::uint64_t v = parse_count(*s, name);
  MEMU_CHECK_MSG(v > 0, name << "='" << *s << "' must be positive");
  return v;
}

// u64 with a fallback for the unset case.
inline std::uint64_t u64_or(const char* name, std::uint64_t fallback) {
  return u64(name).value_or(fallback);
}

// Resolves a memory budget under the flag-wins rule:
//   --mem FLAG        wins outright,
//   MEMU_MEM_BUDGET   applies when no flag was given,
//   fallback          when neither is set.
// Both sources go through MemBudget::parse, so a malformed value from
// either fails loudly with the same grammar diagnostic.
inline MemBudget mem_budget_or(const std::optional<std::string>& flag,
                               MemBudget fallback = MemBudget{}) {
  if (flag.has_value()) return MemBudget::parse(*flag);
  const auto e = raw(kMemBudget);
  if (e.has_value()) return MemBudget::parse(*e);
  return fallback;
}

}  // namespace memu::env

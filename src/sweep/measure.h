// Simulator-backed storage measurements, one call per (algorithm, cell).
//
// These are the measured counterparts of the closed-form bounds: each
// helper builds a fresh system, drives the adversarial workload the paper's
// worst case calls for, and returns peak (or steady-state) total value
// storage normalized by B = 8 * value_size bits. They are pure functions
// of their arguments — the simulator is deterministic — which is what lets
// the sweep engine simulate each distinct config once and share the result
// across every cell that maps to it.
//
// Parked measurements (`parked_*`) reproduce Section 2.3's worst case: nu
// writes driven to their value-dependent phase and frozen there, so every
// server holds all nu unfinished versions. Steady-state measurements
// (`steady_*`) drain the system after sequential writes and report the
// quiescent footprint — the regime where LDR's f + 1 replica placement and
// StripStore's strip-on-commit pay off.
#pragma once

#include <cstddef>
#include <optional>

namespace memu::sweep {

// Peak total value storage / B with nu parked (active) writes.
// ABD on N majority-quorum servers: flat at N for every nu.
double parked_abd(std::size_t n, std::size_t f, std::size_t nu,
                  std::size_t value_size);
// CAS (delta = nullopt) or CASGC (delta = bound on retained versions) with
// code dimension k: grows linearly in nu at (nu + 1) * N / k.
double parked_cas(std::size_t n, std::size_t f, std::size_t k, std::size_t nu,
                  std::optional<std::size_t> delta, std::size_t value_size);

// Quiescent total value storage / B after `writes` sequential writes.
double steady_abd(std::size_t n, std::size_t f, std::size_t writes,
                  std::size_t value_size);
// LDR (Fan-Lynch): values on f + 1 replicas only — Figure 1's idealized
// replication line, achieved.
double steady_ldr(std::size_t n, std::size_t f, std::size_t writes,
                  std::size_t value_size);
// StripStore with delta = 0 (newest committed version only): ~N/(N-f).
double steady_strip(std::size_t n, std::size_t f, std::size_t writes,
                    std::size_t value_size);

// The smallest value payload the simulated systems accept (message codecs
// need room for tags); the sweep clamps ceil(logV / 8) up to this.
constexpr std::size_t kMinValueSize = 12;

}  // namespace memu::sweep

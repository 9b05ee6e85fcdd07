// Bit-size arithmetic used by the storage-cost accounting and the bounds
// library.
//
// The paper measures storage in bits: log2 of the number of states a server
// can take. Value payloads contribute exact multiples of B = log2|V| bits
// (or B/k for coded elements); everything else (tags, labels, counters) is
// metadata — the paper's o(log|V|) terms. StateBits keeps the two parts
// separate so experiments can report both.
#pragma once

#include <cmath>
#include <cstdint>
#include <ostream>

#include "common/check.h"

namespace memu {

// Storage size split into value bits and metadata bits.
struct StateBits {
  // Bits that scale with log2|V| (stored values / coded elements).
  double value_bits = 0;
  // Bits that are o(log2|V|): tags, labels, protocol counters.
  double metadata_bits = 0;

  double total() const { return value_bits + metadata_bits; }

  StateBits& operator+=(const StateBits& o) {
    value_bits += o.value_bits;
    metadata_bits += o.metadata_bits;
    return *this;
  }

  friend StateBits operator+(StateBits a, const StateBits& b) { return a += b; }
  friend bool operator==(const StateBits&, const StateBits&) = default;
};

inline std::ostream& operator<<(std::ostream& os, const StateBits& b) {
  return os << b.total() << "b (value " << b.value_bits << " + meta "
            << b.metadata_bits << ")";
}

// log2(n) for a positive integer-valued double.
inline double log2d(double n) {
  MEMU_CHECK(n > 0);
  return std::log2(n);
}

// log2(n!) computed via lgamma; exact enough for bound evaluation.
// lgamma_r, not std::lgamma: lgamma also writes the sign to the libm global
// `signgam`, a data race when sweep workers evaluate bounds concurrently.
inline double log2_factorial(std::uint64_t n) {
  int sign = 0;
  return ::lgamma_r(static_cast<double>(n) + 1.0, &sign) / std::log(2.0);
}

// log2 of the binomial coefficient C(n, k). Returns -inf-free 0 when k > n
// would make the coefficient zero is treated as a contract violation.
inline double log2_binomial(std::uint64_t n, std::uint64_t k) {
  MEMU_CHECK(k <= n);
  return log2_factorial(n) - log2_factorial(k) - log2_factorial(n - k);
}

// Number of bits needed to address `n` distinct states (ceil(log2 n)),
// with n >= 1; one state needs 0 bits.
inline std::uint64_t bits_to_address(std::uint64_t n) {
  MEMU_CHECK(n >= 1);
  std::uint64_t bits = 0;
  std::uint64_t capacity = 1;
  while (capacity < n) {
    capacity <<= 1;
    ++bits;
  }
  return bits;
}

}  // namespace memu

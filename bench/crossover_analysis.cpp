// Section 2.3 crossover analysis: erasure coding beats replication only
// while nu N/(N-f) < f+1; beyond the crossover, Theorem 6.5's plateau at
// (f+1) log|V| certifies that replication is approximately optimal within
// the single-value-phase class. Prints the analytic crossover for a grid of
// (N, f) and validates it against measured CAS/ABD storage in the
// simulator for a small configuration.
#include <cmath>
#include <iostream>

#include "bounds/bounds.h"
#include "common/table.h"
#include "sweep/measure.h"

namespace {

// Smallest nu at which the erasure upper bound meets/exceeds ABD's f+1.
std::size_t analytic_crossover(std::size_t n, std::size_t f) {
  std::size_t nu = 1;
  while (memu::bounds::erasure_normalized(n, f, nu) <
         memu::bounds::abd_ideal_normalized(f))
    ++nu;
  return nu;
}

}  // namespace

int main() {
  using namespace memu;
  using namespace memu::bounds;

  std::cout << "=== Erasure-vs-replication crossover: smallest nu with "
               "nu*N/(N-f) >= f+1 ===\n\n";
  Table t({"N", "f", "crossover_nu", "(f+1)(N-f)/N", "thm65_at_xover"}, 16);
  for (const auto& [n, f] :
       std::vector<std::pair<std::size_t, std::size_t>>{
           {21, 10}, {21, 5}, {21, 2}, {51, 10}, {101, 10}, {11, 5}}) {
    const std::size_t x = analytic_crossover(n, f);
    t.row()
        .cell(n)
        .cell(f)
        .cell(x)
        .cell(static_cast<double>((f + 1) * (n - f)) / static_cast<double>(n))
        .cell(restricted_normalized(n, f, x));
  }
  t.print();
  std::cout << "\n(Figure 1's N=21, f=10: crossover at nu=6, matching the "
               "plot.)\n";

  std::cout << "\n=== Measured crossover on the simulator (N=9, f=2, "
               "k=N-2f=5, B=960) ===\n\n";
  constexpr std::size_t kValueSize = 120;
  Table m({"nu", "abd_measured", "cas_measured", "cheaper"}, 14);
  std::size_t measured_crossover = 0;
  for (std::size_t nu = 1; nu <= 8; ++nu) {
    const double abd_cost = sweep::parked_abd(9, 2, nu, kValueSize);
    const double cas_cost =
        sweep::parked_cas(9, 2, 5, nu, std::nullopt, kValueSize);

    if (measured_crossover == 0 && cas_cost >= abd_cost)
      measured_crossover = nu;
    m.row()
        .cell(nu)
        .cell(abd_cost)
        .cell(cas_cost)
        .cell(cas_cost < abd_cost ? "erasure" : "replication");
  }
  m.print();
  std::cout << "\nmeasured crossover at nu = " << measured_crossover
            << " (model: (nu+1)*N/k >= N  <=>  nu >= k-1 = 4).\n";
  return 0;
}

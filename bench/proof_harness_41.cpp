// Theorem 4.1, executed: for every ordered pair (v1, v2) of distinct values,
// run the proof's execution alpha(v1,v2), locate the critical points
// (Q1, Q2) by valency probing, and verify the injection
//   (v1, v2) -> (states at Q1, changed server s, state of s at Q2),
// which is the entire content of
//   sum_{i} log2|S_i| + max_i log2|S_i| >= log2(|V|(|V|-1)) - log2(N-f).
//
// The gossip-variant probe (Definition 5.3: flush inter-server channels
// before reading) exercises the Theorem 5.1 construction; for gossip-free
// algorithms the two coincide.
#include <sys/resource.h>

#include <chrono>
#include <iostream>

#include "adversary/harness.h"
#include "bench_json.h"
#include "common/table.h"
#include "engine/scheduler.h"
#include "registers/value.h"
#include "sim/cow_stats.h"

namespace {

memu::benchjson::Json g_cases = memu::benchjson::Json::array();
// Aggregate throughput across all cases: world forks (≈ probed states) per
// second is the least-noisy per-run metric, so the regression gate tracks
// the total rather than per-case wall times.
double g_total_seconds = 0;
std::uint64_t g_total_copies = 0;

// What one deep copy would cost at the points the harness actually forks:
// the post-crash, post-first-write quiesced world (the probes fork Q1/Q2
// candidates, never the pristine initial world).
std::size_t representative_state_bytes(const memu::adversary::SutFactory& f) {
  memu::adversary::Sut sut = f();
  for (std::size_t i = sut.servers.size() - sut.f; i < sut.servers.size(); ++i)
    sut.world.crash(sut.servers[i]);
  sut.world.invoke(sut.writer, memu::Invocation{memu::OpType::kWrite,
                                                memu::enum_value(
                                                    1, sut.value_size)});
  memu::Scheduler sched;
  memu::engine::ExecutionDriver& driver = sched;
  driver.run_until_responses(sut.world, 1, 200000);
  driver.drain(sut.world, 200000);
  return sut.world.canonical_encoding().size();
}

void run_case(const std::string& name, const memu::adversary::SutFactory& f,
              std::size_t domain, bool gossip_variant = false) {
  memu::adversary::ProbeOptions probe;
  probe.flush_gossip = gossip_variant;
  // The harness forks the World once per probe step; record what the COW
  // snapshots actually materialize vs the full-state deep copies they
  // replace (~the canonical encoding length of a forked world).
  const std::size_t state_bytes = representative_state_bytes(f);
  const memu::cowstats::Snapshot before = memu::cowstats::snapshot();
  const auto t0 = std::chrono::steady_clock::now();
  const auto rep = memu::adversary::verify_pair_injectivity(f, domain, probe);
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  const memu::cowstats::Snapshot cow = memu::cowstats::snapshot() - before;
  // Forks (≈ probed states) per second: the harness's throughput measure.
  const double forks_per_sec =
      seconds > 0 ? static_cast<double>(cow.world_copies) / seconds : 0;
  g_total_seconds += seconds;
  g_total_copies += cow.world_copies;
  const bool holds = rep.certificate_log2 + 1e-9 >= rep.bound_log2;
  const double bytes_per_copy =
      cow.world_copies > 0 ? static_cast<double>(cow.bytes_copied) /
                                 static_cast<double>(cow.world_copies)
                           : 0;
  const double copy_reduction =
      bytes_per_copy > 0 ? static_cast<double>(state_bytes) / bytes_per_copy
                         : 0;
  std::cout << "  " << name << ": pairs=" << rep.pairs
            << "  injective=" << (rep.injective ? "yes" : "NO")
            << "  all critical pairs found=" << (rep.all_found ? "yes" : "NO")
            << "  valency flips v1->v2=" << (rep.all_consistent ? "yes" : "NO")
            << "  single-server change=" << (rep.all_single_change ? "yes" : "NO")
            << "\n      counting certificate: sum log2|S_i@Q1| + log2#(s,S@Q2) = "
            << rep.certificate_log2 << " >= log2(m(m-1)) = " << rep.bound_log2
            << (holds ? "  HOLDS" : "  VIOLATED")
            << "\n      COW: " << cow.world_copies << " forks, "
            << bytes_per_copy << " B materialized/fork (deep copy ~"
            << state_bytes << " B -> " << copy_reduction << "x less)  ["
            << seconds << " s, " << forks_per_sec << " forks/s]\n";
  g_cases.push(memu::benchjson::Json::object()
                   .set("case", name)
                   .set("gossip_variant", gossip_variant)
                   .set("seconds", seconds)
                   .set("forks_per_sec", forks_per_sec)
                   .set("pairs", rep.pairs)
                   .set("injective", rep.injective)
                   .set("all_found", rep.all_found)
                   .set("all_consistent", rep.all_consistent)
                   .set("all_single_change", rep.all_single_change)
                   .set("certificate_log2", rep.certificate_log2)
                   .set("bound_log2", rep.bound_log2)
                   .set("holds", holds)
                   .set("world_copies", cow.world_copies)
                   .set("cow_detaches", cow.detaches())
                   .set("cow_bytes_copied", cow.bytes_copied)
                   .set("cow_bytes_per_copy", bytes_per_copy)
                   .set("state_encoding_bytes", state_bytes)
                   .set("cow_copy_reduction_x", copy_reduction));
}

}  // namespace

int main() {
  using namespace memu::adversary;
  std::cout << "=== Theorem 4.1 proof harness: critical points + pair "
               "injectivity ===\n\n";
  run_case("ABD   N=5 f=2        ", abd_sut_factory(5, 2, 16), 5);
  run_case("ABD   N=7 f=3        ", abd_sut_factory(7, 3, 16), 4);
  run_case("ABD   N=5 f=2 (SWMR) ", sut_factory("abd-swmr", 5, 2, 0, 16), 5);
  run_case("CAS   N=5 f=1 k=3    ", cas_sut_factory(5, 1, 3, 18, {}), 5);
  run_case("CAS   N=7 f=2 k=3    ", cas_sut_factory(7, 2, 3, 18, {}), 4);
  run_case("CASGC N=5 f=1 k=3 d=1",
           cas_sut_factory(5, 1, 3, 18, std::size_t{1}), 4);
  run_case("LDR   N=5 f=1        ", ldr_sut_factory(5, 1, 16), 4);
  run_case("STRIP N=5 f=2        ", strip_sut_factory(5, 2, 16), 4);

  std::cout << "\n--- Theorem 5.1 variant (inter-server channels flushed "
               "before each probe) ---\n";
  run_case("ABD   N=5 f=2        ", abd_sut_factory(5, 2, 16), 4, true);
  run_case("GOSSIP N=5 f=2 (real gossip traffic)",
           gossip_sut_factory(5, 2, 16), 4, true);
  run_case("CAS   N=5 f=1 k=3    ", cas_sut_factory(5, 1, 3, 18, {}), 4,
           true);

  std::cout << "\nEvery execution contains a 1-valent/2-valent critical "
               "step with exactly one server changing state (Lemma 4.8), "
               "and the state-vector map is injective — the counting "
               "argument of Theorems 4.1/5.1 realized on live protocols.\n";
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  memu::benchjson::write(
      "proof_harness_41",
      memu::benchjson::Json::object()
          .set("bench", "proof_harness_41")
          .set("cases", g_cases)
          .set("total_seconds", g_total_seconds)
          .set("total_world_copies", g_total_copies)
          .set("world_copies_per_sec",
               g_total_seconds > 0
                   ? static_cast<double>(g_total_copies) / g_total_seconds
                   : 0)
          .set("peak_rss_kb", static_cast<std::uint64_t>(ru.ru_maxrss)));
  return 0;
}

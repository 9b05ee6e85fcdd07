// harness-pairs: Theorem 4.1/5.1 pair injectivity, single-threaded.
//
//   phase 1 (deterministic): ABD N=5 f=2, CAS N=5 f=1 k=3, LDR N=5 f=1,
//            Strip N=5 f=2 and gossip N=5 f=2 with flush, each over all
//            48 * 47 = 2,256 ordered value pairs.
//   phase 2 (exact): all-schedule valency on ABD N=3 f=1 and CAS N=4 f=1
//            k=2 at small domains, which runs the engine as thousands of
//            tiny searches dominated by per-search setup.
//
// The seed picks where each case starts in the list of crashed f-subsets
// and successive repetitions step through it (the theorems quantify over
// every subset). Phase 1 is the fork-probe-discard pattern: hundreds of
// thousands of short-lived World copies each driven to one read. Metrics
// count pairs, not forks: forks per pair is a layer count, and a change
// that forks less must not read as slower.
#include <cmath>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "adversary/harness.h"
#include "bench.h"
#include "engine/scheduler.h"
#include "inputs.h"
#include "sim/cow_stats.h"

namespace perfbench {
namespace {

using namespace memu;
using namespace memu::adversary;

struct Case {
  std::string name;
  SutFactory factory;
  std::size_t n, f, domain;
  bool flush = false;
  bool exact = false;
};

std::vector<Case> make_cases() {
  return {
      {"abd", abd_sut_factory(5, 2, 16), 5, 2, 48},
      {"cas", cas_sut_factory(5, 1, 3, 18, std::nullopt), 5, 1, 48},
      {"ldr", ldr_sut_factory(5, 1, 16), 5, 1, 48},
      {"strip", strip_sut_factory(5, 2, 16), 5, 2, 48},
      {"gossip", gossip_sut_factory(5, 2, 16), 5, 2, 48, /*flush=*/true},
      {"abd-exact", abd_sut_factory(3, 1, 12), 3, 1, 6, false, /*exact=*/true},
      {"cas-exact", cas_sut_factory(4, 1, 2, 14, std::nullopt), 4, 1, 5, false,
       /*exact=*/true},
  };
}

ProbeOptions probe_for(const Case& c) {
  ProbeOptions p;
  p.flush_gossip = c.flush;
  p.exact = c.exact;
  return p;
}

bool certified(const PairReport& r) {
  return r.injective && r.all_found && r.all_consistent &&
         r.certificate_log2 + 1e-9 >= r.bound_log2;
}

// Traced: verify_pair_injectivity's loop made from outside, one
// find_critical_pair call per ordered pair with a span around each, and
// the report rebuilt from the returned critical points.
PairReport traced_pairs_report(const Case& c, const std::vector<std::size_t>& crash,
                               const char* span_name) {
  const ProbeOptions probe = probe_for(c);
  const std::size_t value_size = c.factory().value_size;
  PairReport r;
  r.domain = c.domain;
  r.pairs = c.domain * (c.domain - 1);
  r.bound_log2 = std::log2(static_cast<double>(r.pairs));
  r.all_found = r.all_consistent = true;
  std::set<Bytes> signatures;
  std::map<std::uint32_t, std::set<Bytes>> q1;
  std::set<std::pair<std::uint32_t, Bytes>> q2;
  std::uint64_t op = 0;
  for (std::size_t i = 1; i <= c.domain; ++i) {
    for (std::size_t j = 1; j <= c.domain; ++j) {
      if (i == j) continue;
      CriticalPointInfo info;
      {
        Span span(span_name, op++);
        info = find_critical_pair(c.factory, enum_value(i, value_size),
                                  enum_value(j, value_size), probe, crash);
      }
      r.all_found &= info.found;
      r.all_consistent &= info.probes_consistent;
      if (!info.found) continue;
      signatures.insert(info.signature);
      for (const auto& [id, state] : info.q1_states) q1[id].insert(state);
      q2.insert({info.changed_server.value, info.q2_changed_state});
    }
  }
  r.distinct_signatures = signatures.size();
  r.injective = r.all_found && signatures.size() == r.pairs;
  r.certificate_log2 = q2.empty() ? 0 : std::log2(static_cast<double>(q2.size()));
  for (const auto& [id, states] : q1)
    r.certificate_log2 += std::log2(static_cast<double>(states.size()));
  return r;
}

// Traced: times single valency probes at P0 (value written and quiesced,
// the case's f-subset crashed), the point every critical-pair search
// starts from.
void sample_probes(const Case& c, const std::vector<std::size_t>& crash,
                   std::size_t samples) {
  const ProbeOptions probe = probe_for(c);
  for (std::size_t v = 1; v <= samples; ++v) {
    Sut sut = c.factory();
    for (const std::size_t i : crash) sut.world.crash(sut.servers[i]);
    sut.world.invoke(sut.writer, {OpType::kWrite, enum_value(v, sut.value_size)});
    Scheduler sched;
    engine::ExecutionDriver& driver = sched;
    driver.run_until_responses(sut.world, 1, 200000);
    driver.drain(sut.world, 200000);
    if (c.exact) {
      Span span("adversary.probe_read_all_values", v);
      probe_read_all_values(sut.world, sut.writer, sut.reader, probe);
    } else {
      Span span("adversary.probe_read", v);
      probe_read(sut.world, sut.writer, sut.reader, probe);
    }
  }
}

}  // namespace

void run_harness(const RunConfig& cfg, Outcome& out) {
  std::vector<Case> cases;
  const auto crash = [&](std::size_t k, std::size_t rep) {
    return crash_subset(cfg.seed, k, rep, cases[k].n, cases[k].f);
  };
  const auto run_case = [&](std::size_t k, std::size_t domain, std::size_t rep) {
    const Case& c = cases[k];
    PairReport r;
    {
      Span span("adversary.verify_pair_injectivity", k);
      r = verify_pair_injectivity(c.factory, domain, probe_for(c), crash(k, rep));
    }
    out.check(certified(r), c.name + " pairs are injective, found, consistent "
                                     "and certified (domain " +
                                std::to_string(domain) + ")");
    return r.pairs;
  };
  const auto phase = [&](bool exact, std::size_t rep) {
    std::size_t pairs = 0;
    for (std::size_t k = 0; k < cases.size(); ++k)
      if (cases[k].exact == exact) pairs += run_case(k, cases[k].domain, rep);
    return pairs;
  };

  // Set-up: build the factories and warm up each case on a three-value
  // domain.
  out.set("setup_s", median_setup(5, [&] {
            cases = make_cases();
            for (std::size_t k = 0; k < cases.size(); ++k) run_case(k, 3, 0);
          }),
          "s");

  if (!cfg.trace) {
    // Repetitions differ in their crashed subsets, so the rates are total
    // pairs over total seconds rather than a median of unequal units.
    std::size_t det_pairs = 0, exact_pairs = 0;
    const PhaseWalls w = alternate_for(
        cfg.seconds, 3, [&](std::size_t rep) { det_pairs += phase(false, rep); },
        [&](std::size_t rep) { exact_pairs += phase(true, rep); });
    double det_seconds = 0, exact_seconds = 0;
    for (const double s : w.phase1) det_seconds += s;
    for (const double s : w.phase2) exact_seconds += s;
    out.set("phase1_per_s", ratio(static_cast<double>(det_pairs), det_seconds), "1/s");
    out.set("phase2_per_s", ratio(static_cast<double>(exact_pairs), exact_seconds),
            "1/s");
    return;
  }

  std::uint64_t forks = 0, fork_bytes = 0, det_pairs = 0;
  traced_pairs(
      cfg.seconds,
      [&](std::size_t rep) {
        phase(false, rep);
        phase(true, rep);
      },
      [&](std::size_t rep) {
        for (std::size_t k = 0; k < cases.size(); ++k) {
          const Case& c = cases[k];
          const cowstats::Snapshot before = cowstats::snapshot();
          const PairReport r = traced_pairs_report(
              c, crash(k, rep),
              c.exact ? "adversary.find_critical_pair_exact"
                      : "adversary.find_critical_pair");
          out.check(certified(r), c.name + " traced pairs are certified");
          if (!c.exact) {
            const cowstats::Snapshot d = cowstats::snapshot() - before;
            forks += d.world_copies;
            fork_bytes += d.bytes_copied;
            det_pairs += r.pairs;
          }
          sample_probes(c, crash(k, rep), c.exact ? 3 : 16);
        }
      },
      out);

  const std::vector<SpanRecord> spans = tracer().snapshot();
  const std::vector<double> pair_ns = span_durations_ns(spans, "adversary.find_critical_pair");
  out.set("adversary.pair_us_p50", median(pair_ns) / 1e3, "us");
  out.set("adversary.pair_us_p99", percentile(pair_ns, 99) / 1e3, "us");
  out.check(supported_percentile(pair_ns.size()) >= 99,
            "p99 has at least ten samples beyond it");
  out.set("adversary.forks_per_pair",
          ratio(static_cast<double>(forks), static_cast<double>(det_pairs)), "ratio");
  out.set("sim.bytes_copied_per_fork",
          ratio(static_cast<double>(fork_bytes), static_cast<double>(forks)), "B");
  out.set("adversary.probe_us",
          median(span_durations_ns(spans, "adversary.probe_read")) / 1e3, "us");
  out.set("adversary.exact_probe_us",
          median(span_durations_ns(spans, "adversary.probe_read_all_values")) / 1e3, "us");
}

}  // namespace perfbench

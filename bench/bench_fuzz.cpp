// Fuzz throughput benchmark: campaign walk rate across thread counts and
// minimizer probe rate serial vs parallel, with byte-determinism checks.
//
// Walks are pure functions of (spec, plan, walk_seed), so the campaign
// summary must render byte-identically for every FuzzPlan::threads value —
// this bench measures the wall-clock side of that contract and records a
// hard determinism verdict next to the rates. Likewise minimize() commits
// the lowest-index violating probe per round, so its minimized trace and
// tests_run are thread-count-invariant while the probes replay in parallel.
//
// Results land in BENCH_fuzz.json (see bench_json.h) for the CI regression
// gate. Scaling beyond 1x is bounded by the host's core count, which is
// recorded alongside — a 1-core runner legitimately reports ~1x.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench_json.h"
#include "common/arena.h"
#include "common/cli.h"
#include "fuzz/campaign.h"
#include "fuzz/minimizer.h"
#include "fuzz/plan.h"
#include "fuzz/trace_io.h"
#include "sim/cow_stats.h"
#include "spin.h"

namespace {

using namespace memu;
using namespace memu::fuzz;

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

struct TimedCampaign {
  CampaignSummary summary;
  double seconds = 0;
  cowstats::Snapshot cow;
};

TimedCampaign timed_campaign(const SystemSpec& spec, const FuzzPlan& plan) {
  TimedCampaign out;
  const cowstats::Snapshot before = cowstats::snapshot();
  const auto t0 = std::chrono::steady_clock::now();
  out.summary = run_campaign(spec, plan);
  out.seconds = seconds_since(t0);
  out.cow = cowstats::snapshot() - before;
  return out;
}

// The pinned violating configuration from the campaign tests: abd-regular
// walk 28 of seed 2 breaks atomicity, which gives the minimizer a real
// counterexample to shrink.
FuzzTrace violating_trace() {
  SystemSpec spec;
  spec.algo = "abd-regular";
  spec.n_servers = 5;
  spec.f = 2;
  spec.n_writers = 2;
  spec.n_readers = 3;
  spec.value_size = 60;
  FuzzPlan plan;
  plan.seed = 2;
  plan.walks = 29;
  plan.max_steps = 20'000;
  plan.writes_per_writer = 4;
  plan.reads_per_reader = 6;
  plan.check = CheckKind::kAtomic;
  plan.minimize = false;
  const CampaignSummary s = run_campaign(spec, plan);
  if (s.violations == 0 || s.walks[28].check.ok) {
    std::cerr << "FATAL: pinned violating walk did not violate\n";
    std::exit(1);
  }
  return s.walks[28].trace;
}

}  // namespace

int main(int argc, char** argv) try {
  const unsigned cores = std::thread::hardware_concurrency();
  // `--walks N` shrinks the campaign so a Release bench-smoke job finishes
  // in seconds. Unset (the default) runs the size the committed baseline
  // records.
  const cli::Args a = cli::parse(argc, argv, {}, {"walks"});
  MEMU_CHECK_MSG(a.positional.empty(),
                 "unexpected argument '" << a.positional.front() << "'");
  const std::size_t walks = a.num("walks", 256);
  MEMU_CHECK_MSG(walks > 0, "--walks must be positive");

  SystemSpec spec;
  spec.algo = "abd";
  FuzzPlan plan;
  plan.seed = 1;
  plan.walks = walks;
  plan.max_steps = 20'000;
  plan.writes_per_writer = 3;
  plan.reads_per_reader = 3;
  plan.minimize = false;  // measure pure walk throughput

  std::cout << "=== Fuzz throughput (abd, " << walks << " walks, "
            << cores << " core(s)) ===\n";

  // Campaign scaling: the same campaign at 1/2/4/8 workers. Byte-compare
  // every summary against the serial one — determinism is part of the
  // result, not an assumption.
  const std::vector<std::size_t> thread_counts = {1, 2, 4, 8};
  std::vector<TimedCampaign> runs;
  std::string serial_json;
  bool determinism_ok = true;
  // The CPU share the machine gave around the 4-thread leg (see spin.h).
  double parallelism = 0;
  for (const std::size_t t : thread_counts) {
    FuzzPlan p = plan;
    p.threads = t;
    const bool gate_leg = t == bench::kScalingGateThreads;
    const double spin_before = gate_leg ? bench::spin_parallelism() : 0;
    runs.push_back(timed_campaign(spec, p));
    if (gate_leg)
      parallelism = std::min(spin_before, bench::spin_parallelism());
    const std::string json = runs.back().summary.to_json();
    if (t == 1) {
      serial_json = json;
    } else if (json != serial_json) {
      determinism_ok = false;
    }
    std::cout << "  threads=" << t << ": " << runs.back().seconds << " s, "
              << (runs.back().seconds > 0
                      ? static_cast<double>(walks) / runs.back().seconds
                      : 0)
              << " walks/s\n";
  }
  std::cout << "  " << parallelism << " CPUs for "
            << bench::kScalingGateThreads
            << " spinning threads around the 4-thread leg\n";
  const double serial_secs = runs.front().seconds;
  const double walks_per_sec =
      serial_secs > 0 ? static_cast<double>(walks) / serial_secs : 0;
  std::cout << "  summaries byte-identical across thread counts: "
            << (determinism_ok ? "yes" : "MISMATCH") << '\n'
            << "  prototype cache: " << runs.front().cow.fuzz_system_builds
            << " builds, " << runs.front().cow.fuzz_system_reuses
            << " reuses (serial run)\n";

  // Minimizer probe rate: shrink the pinned counterexample serially and
  // with 4 workers; both must land on the same trace and replay count. One
  // shrink is a few milliseconds, so time a batch to get a stable rate.
  constexpr std::size_t kMinimizeReps = 20;
  const FuzzTrace trace = violating_trace();
  const auto m0 = std::chrono::steady_clock::now();
  MinimizeResult serial_min;
  for (std::size_t i = 0; i < kMinimizeReps; ++i)
    serial_min = minimize(trace, 1);
  const double min_serial_secs = seconds_since(m0) / kMinimizeReps;
  const auto m1 = std::chrono::steady_clock::now();
  MinimizeResult parallel_min;
  for (std::size_t i = 0; i < kMinimizeReps; ++i)
    parallel_min = minimize(trace, 4);
  const double min_parallel_secs = seconds_since(m1) / kMinimizeReps;
  const bool minimize_ok =
      serial_min.tests_run == parallel_min.tests_run &&
      trace_to_json(serial_min.trace) == trace_to_json(parallel_min.trace);
  const double probes_per_sec =
      min_serial_secs > 0
          ? static_cast<double>(serial_min.tests_run) / min_serial_secs
          : 0;
  std::cout << "  minimize: " << trace.events.size() << " -> "
            << serial_min.trace.events.size() << " events, "
            << serial_min.tests_run << " probes; serial " << min_serial_secs
            << " s, 4 threads " << min_parallel_secs << " s ("
            << probes_per_sec << " probes/s serial)\n"
            << "  minimize deterministic across thread counts: "
            << (minimize_ok ? "yes" : "MISMATCH") << '\n';

  benchjson::Json scaling = benchjson::Json::array();
  for (std::size_t i = 0; i < thread_counts.size(); ++i) {
    const TimedCampaign& r = runs[i];
    scaling.push(
        benchjson::Json::object()
            .set("threads", thread_counts[i])
            .set("seconds", r.seconds)
            .set("walks_per_sec",
                 r.seconds > 0 ? static_cast<double>(walks) / r.seconds : 0)
            .set("speedup_x", r.seconds > 0 ? serial_secs / r.seconds : 0));
  }
  benchjson::Json root = benchjson::Json::object();
  root.set("bench", "fuzz")
      .set("config", "abd_n5_f2_standard_mix")
      .set("hardware_concurrency", cores)
      .set("cores", cores)
      // What the scaling gate keys on (see spin.h): `cores` is what the OS
      // lists, this is what the machine delivered.
      .set("spin_parallelism", parallelism)
      // High-water mark of World slab pages reserved across the whole
      // process (see worldmem in common/arena.h).
      .set("slab_bytes_reserved", worldmem::reserved_bytes())
      .set("walks", walks)
      .set("steps_total", runs.front().summary.steps_total)
      .set("violations", runs.front().summary.violations)
      .set("walks_per_sec", walks_per_sec)
      .set("scaling", scaling)
      .set("thread_determinism_ok", determinism_ok)
      .set("fuzz_system_builds", runs.front().cow.fuzz_system_builds)
      .set("fuzz_system_reuses", runs.front().cow.fuzz_system_reuses)
      .set("minimize",
           benchjson::Json::object()
               .set("input_events", trace.events.size())
               .set("minimized_events", serial_min.trace.events.size())
               .set("tests_run", serial_min.tests_run)
               .set("serial_seconds", min_serial_secs)
               .set("parallel4_seconds", min_parallel_secs)
               .set("determinism_ok", minimize_ok))
      .set("minimize_probes_per_sec", probes_per_sec);
  {
    // Peak RSS of the whole bench process: the memory number the --mem
    // regression gate tracks alongside the explore benches'.
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    root.set("peak_rss_kb", static_cast<std::uint64_t>(ru.ru_maxrss));
  }
  benchjson::write("fuzz", root);
  return determinism_ok && minimize_ok ? 0 : 1;
} catch (const std::exception& e) {
  // A bad flag or an error raised during the run is no verdict: one line
  // and exit 2, as memu does.
  std::cerr << "bench_fuzz: " << error_message(e) << '\n';
  return 2;
}

// memu_perfbench: one workload per process, one JSON result line.
//
//   memu_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                  [--root <checkout>] [--out-dir <dir>]
//
// Untraced runs (--trace 0) report the end-to-end metrics; traced runs
// (--trace 1) report every per-layer metric and write their spans to
// <out-dir>/trace-<workload>-<seed>.jsonl. The last stdout line is
// {"correct", "attempted", "failed", "metrics"}; the line before it is the
// machine record. perfbench/README.md documents every metric.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench.h"
#include "machine.h"

namespace {

using namespace perfbench;

struct Name {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json; perfbench/run.py checks every result against it.
const std::vector<Name> kEndToEnd = {
    {"setup_s", "s"}, {"peak_rss_mb", "MB"}, {"phase1_per_s", "1/s"},
    {"phase2_per_s", "1/s"}};

const std::vector<Name> kPerLayer = {
    {"engine.self_s", "s"},
    {"engine.states_per_s", "1/s"},
    {"engine.transitions_per_state", "ratio"},
    {"engine.dedupe_hit_ratio", "ratio"},
    {"engine.replay_steps", "count"},
    {"engine.visited_bytes", "B"},
    {"engine.frontier_bytes", "B"},
    {"engine.sleep_blocked", "count"},
    {"engine.symmetry_merged", "count"},
    {"sim.self_s", "s"},
    {"sim.copy_deliver_ns", "ns"},
    {"sim.state_hash_ns", "ns"},
    {"sim.deliverable_channels_ns", "ns"},
    {"sim.symmetry_key_ns", "ns"},
    {"sim.bytes_copied_per_state", "B"},
    {"sim.detaches_per_state", "ratio"},
    {"sim.bytes_copied_per_fork", "B"},
    {"sim.canonical_encodings", "count"},
    {"sim.slab_bytes_reserved", "B"},
    {"consistency.self_s", "s"},
    {"consistency.terminal_check_s", "s"},
    {"consistency.check_us", "us"},
    {"fuzz.self_s", "s"},
    {"fuzz.campaign_s.abd", "s"},
    {"fuzz.campaign_s.cas", "s"},
    {"fuzz.campaign_s.ldr", "s"},
    {"fuzz.campaign_s.strip", "s"},
    {"fuzz.steps_per_s", "1/s"},
    {"fuzz.drive_us", "us"},
    {"fuzz.prototype_reuse_ratio", "ratio"},
    {"fuzz.find_s", "s"},
    {"fuzz.minimize_s", "s"},
    {"fuzz.probes_per_shrink", "ratio"},
    {"fuzz.probes_per_s", "1/s"},
    {"sweep.self_s", "s"},
    {"sweep.bounds_ns_per_cell", "ns"},
    {"sweep.simulate_ms_per_key", "ms"},
    {"sweep.sink_ns_per_row", "ns"},
    {"sweep.memo_hit_ratio", "ratio"},
    {"sweep.memo_bytes", "B"},
    {"sweep.parallel_efficiency", "ratio"},
    {"workload.self_s", "s"},
    {"workload.parked_abd_ms", "ms"},
    {"workload.parked_cas_ms", "ms"},
    {"workload.parked_casgc_ms", "ms"},
    {"workload.steady_ldr_ms", "ms"},
    {"adversary.self_s", "s"},
    {"adversary.pair_us_p50", "us"},
    {"adversary.pair_us_p99", "us"},
    {"adversary.forks_per_pair", "ratio"},
    {"adversary.probe_us", "us"},
    {"adversary.exact_probe_us", "us"},
    {"trace.overhead_ratio", "ratio"},
    {"trace.unattributed_s", "s"},
};

int usage(const std::string& why) {
  std::cerr << "memu_perfbench: " << why
            << "\nusage: memu_perfbench --workload "
               "<explore-cas|fuzz-mix|sweep-grid|harness-pairs> --seed <n> "
               "--seconds <s> --trace <0|1> [--root <dir>] [--out-dir <dir>]\n";
  return 2;
}

bool parse_u64(const std::string& s, std::uint64_t& out) {
  if (s.empty() || s.find_first_not_of("0123456789") != std::string::npos) return false;
  char* end = nullptr;
  out = std::strtoull(s.c_str(), &end, 10);
  return *end == '\0';
}

std::string number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig cfg;
  std::uint64_t trace = 2, seconds = 0;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage("missing value for " + arg);
    const std::string val = argv[++i];
    if (arg == "--workload") {
      cfg.workload = val;
    } else if (arg == "--seed") {
      if (!parse_u64(val, cfg.seed)) return usage("bad --seed " + val);
      have_seed = true;
    } else if (arg == "--seconds") {
      if (!parse_u64(val, seconds) || seconds < 1 || seconds > 3600)
        return usage("bad --seconds " + val);
    } else if (arg == "--trace") {
      if (!parse_u64(val, trace) || trace > 1) return usage("bad --trace " + val);
    } else if (arg == "--root") {
      cfg.root = val;
    } else if (arg == "--out-dir") {
      cfg.out_dir = val;
    } else {
      return usage("unknown argument " + arg);
    }
  }
  if (!have_seed || seconds == 0 || trace > 1) return usage("missing argument");
  cfg.seconds = static_cast<double>(seconds);
  cfg.trace = trace == 1;
  if (cfg.out_dir.empty()) cfg.out_dir = cfg.root + "/.bench_build/perfbench-out";

  void (*run)(const RunConfig&, Outcome&) = nullptr;
  if (cfg.workload == "explore-cas") run = run_explore;
  if (cfg.workload == "fuzz-mix") run = run_fuzz;
  if (cfg.workload == "sweep-grid") run = run_sweep;
  if (cfg.workload == "harness-pairs") run = run_harness;
  if (run == nullptr) return usage("unknown workload '" + cfg.workload + "'");

  const std::string build_type = PERFBENCH_BUILD_TYPE;
#ifndef NDEBUG
  std::cerr << "memu_perfbench: assertions are enabled; only a Release build "
               "(-O3 -DNDEBUG) gives comparable numbers\n";
  return 3;
#endif
  if (build_type != "Release") {
    std::cerr << "memu_perfbench: built as " << build_type
              << "; only a Release build gives comparable numbers\n";
    return 3;
  }
  std::error_code ec;
  std::filesystem::create_directories(cfg.out_dir, ec);
  if (ec) {
    std::cerr << "memu_perfbench: cannot create " << cfg.out_dir << ": "
              << ec.message() << '\n';
    return 4;
  }

  const MachineRecord machine = measure_machine(build_type);
  // The sweep is the only multi-threaded workload: on a machine that cannot
  // run two threads at once its numbers measure the machine, not the code.
  const bool comparable =
      cfg.workload != "sweep-grid" || machine.two_threads_parallel();
  if (!comparable)
    std::cerr << "memu_perfbench: WARNING: two threads accrue only "
              << machine.cpu_per_wall_2t
              << " CPU-s per wall-s; sweep-grid numbers from this machine are "
                 "not comparable with a 2-core run\n";

  Outcome out;
  run(cfg, out);
  // End-to-end metrics come only from untraced runs.
  if (cfg.trace)
    out.metrics.erase("setup_s");
  else
    out.set("peak_rss_mb", peak_rss_mb(), "MB");

  const std::vector<Name>& names = cfg.trace ? kPerLayer : kEndToEnd;
  std::ostringstream metrics;
  for (const auto& [name, m] : out.metrics) {
    bool known = false;
    for (const Name& n : names) known |= name == n.name && m.unit == n.unit;
    if (!known) {
      std::cerr << "memu_perfbench: metric " << name << " [" << m.unit
                << "] is not registered\n";
      return 5;
    }
  }
  for (std::size_t i = 0; i < names.size(); ++i) {
    const auto it = out.metrics.find(names[i].name);
    if (it == out.metrics.end() && !cfg.trace) {
      std::cerr << "memu_perfbench: metric " << names[i].name << " missing\n";
      return 5;
    }
    // A layer the workload does not exercise reports 0.
    const double v = it == out.metrics.end() ? 0.0 : it->second.value;
    out.check(std::isfinite(v), std::string(names[i].name) + " is finite");
    metrics << (i ? ", " : "") << '"' << names[i].name << "\": {\"value\": "
            << number(std::isfinite(v) ? v : 0.0) << ", \"unit\": \""
            << names[i].unit << "\"}";
  }

  const std::string tag = cfg.workload + "-" + std::to_string(cfg.seed);
  if (cfg.trace && !tracer().write(cfg.out_dir + "/trace-" + tag + ".jsonl"))
    std::cerr << "memu_perfbench: could not write the span file\n";
  std::ostringstream result;
  result << "{\"correct\": " << (out.failed == 0 ? "true" : "false")
         << ", \"attempted\": " << out.attempted << ", \"failed\": " << out.failed
         << ", \"metrics\": {" << metrics.str() << "}}";
  std::ofstream(cfg.out_dir + "/result-" + tag + "-trace" +
                std::to_string(trace) + ".json")
      << "{\"machine\": " << machine.to_json() << ", \"comparable\": "
      << (comparable ? "true" : "false") << ", \"result\": " << result.str()
      << "}\n";
  std::cout << "machine " << machine.to_json() << " comparable "
            << (comparable ? "true" : "false") << '\n'
            << result.str() << std::endl;
  return 0;
}

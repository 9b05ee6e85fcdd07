// memu_sweep — batch parameter-grid sweeps over every bound and algorithm.
//
//   memu_sweep [--grid N=3:21:2,f=1:10,nu=1:20,logV=1:50] [--measure]
//              [--threads T] [--mem BUDGET] [--csv FILE] [--json FILE]
//              [--block CELLS]
//       Evaluate every closed-form bound (and, with --measure, every
//       simulated algorithm) at every grid cell, streaming CSV to stdout
//       (or --csv FILE) and optionally JSON to --json FILE. Rows are
//       emitted in row-major grid order (N, f, nu, logV) and the output is
//       byte-identical for ANY --threads or --mem value — timing, memo
//       statistics, and thread counts go to stderr only. A measured sweep
//       simulates each distinct config once before streaming rows, so its
//       memo statistics are the same at any --threads too.
//
//   memu_sweep --fig1 [--out-dir DIR] [--threads T] [--mem BUDGET]
//       Regenerate the committed Figure 1 reproduction artifact:
//       DIR/fig1_data.csv + DIR/fig1_plot.gp (default DIR = bench/fig1).
//       The fig1-artifact CI job byte-diffs the regenerated CSV against
//       the committed copy.
//
// --mem takes <bytes|512M|4G> (K/M/G = powers of 1024) and bounds the
// simulation key table (which must fit half of it) and the in-flight row
// window; the MEMU_MEM_BUDGET environment variable supplies a default under
// the flag-wins rule. A sweep without --mem runs unbudgeted.
#include <chrono>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/arena.h"
#include "common/env.h"
#include "engine/thread_pool.h"
#include "sweep/fig1.h"
#include "sweep/grid.h"
#include "sweep/sweep.h"

namespace {

using namespace memu;

struct Args {
  std::map<std::string, std::string> flags;

  bool has(const std::string& f) const { return flags.contains(f); }
  std::size_t num(const std::string& f, std::size_t fallback) const {
    const auto it = flags.find(f);
    if (it == flags.end()) return fallback;
    return env::parse_count(it->second, ("--" + f).c_str());
  }
  std::string str(const std::string& f, const std::string& fallback) const {
    const auto it = flags.find(f);
    return it == flags.end() ? fallback : it->second;
  }
  std::optional<std::string> opt(const std::string& f) const {
    const auto it = flags.find(f);
    if (it == flags.end()) return std::nullopt;
    return it->second;
  }
};

int usage() {
  std::cerr
      << "usage: memu_sweep [--grid N=3:21:2,f=1:10,nu=1:20,logV=1:50]\n"
      << "                  [--measure] [--threads T] [--mem BUDGET]\n"
      << "                  [--csv FILE] [--json FILE] [--block CELLS]\n"
      << "       memu_sweep --fig1 [--out-dir DIR] [--threads T]"
      << " [--mem BUDGET]\n"
      << "Grid axes: N, f, nu, logV — each lo[:hi[:step]], inclusive.\n"
      << "Output is byte-identical for any --threads/--mem value; stats\n"
      << "go to stderr. MEMU_MEM_BUDGET sets a default --mem (flag wins).\n";
  return 2;
}

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string s = argv[i];
    if (s.rfind("--", 0) != 0) return false;
    const std::string key = s.substr(2);
    // emplace: a repeated flag keeps its first value (and dodges a GCC 12
    // -Wrestrict false positive in the map-assign path, PR105329).
    if (key == "measure" || key == "fig1") {
      a.flags.emplace(key, "1");
    } else if (i + 1 < argc) {
      a.flags.emplace(key, argv[++i]);
    } else {
      return false;
    }
  }
  return true;
}

void report_stats(const sweep::SweepStats& stats, std::size_t threads,
                  const MemBudget& mem, bool measured) {
  std::cerr << "sweep: " << stats.cells << " cells (" << stats.rows
            << " rows, " << stats.skipped << " skipped) in " << stats.seconds
            << "s (" << stats.cells_per_sec << " cells/s, " << threads
            << " threads, mem " << mem.to_string() << ")\n";
  if (measured) {
    std::cerr << "memo: " << stats.memo_hits << " hits, "
              << stats.memo_misses << " misses, " << stats.memo_bytes
              << " bytes\n";
  }
}

int cmd_fig1(const Args& a, std::size_t threads, const MemBudget& mem) {
  sweep::Fig1Options opt;
  opt.out_dir = a.str("out-dir", "bench/fig1");
  opt.threads = threads;
  opt.mem = mem;
  const sweep::Fig1Result r = sweep::write_figure1(opt);
  std::cerr << "wrote " << r.csv_path << " and " << r.gp_path << '\n';
  report_stats(r.stats, threads, mem, /*measured=*/true);
  return 0;
}

int cmd_sweep(const Args& a, std::size_t threads, const MemBudget& mem) {
  sweep::SweepOptions opt;
  if (a.has("grid")) opt.grid = sweep::GridSpec::parse(a.flags.at("grid"));
  opt.measure = a.has("measure");
  opt.threads = threads;
  opt.mem = mem;
  opt.block_cells = a.num("block", 256);
  MEMU_CHECK_MSG(opt.block_cells >= 1, "--block must be >= 1");

  sweep::MultiSink sinks;
  std::ofstream csv_file, json_file;
  sweep::CsvSink csv_stdout(std::cout);
  std::optional<sweep::CsvSink> csv_sink;
  std::optional<sweep::JsonSink> json_sink;
  const std::string csv_path = a.str("csv", "-");
  if (csv_path == "-") {
    sinks.add(&csv_stdout);
  } else {
    csv_file.open(csv_path);
    MEMU_CHECK_MSG(csv_file.good(), "cannot open --csv " << csv_path);
    csv_sink.emplace(csv_file);
    sinks.add(&*csv_sink);
  }
  if (a.has("json")) {
    const std::string json_path = a.flags.at("json");
    json_file.open(json_path);
    MEMU_CHECK_MSG(json_file.good(), "cannot open --json " << json_path);
    json_sink.emplace(json_file);
    sinks.add(&*json_sink);
  }

  const sweep::SweepStats stats = sweep::run_sweep(opt, sinks);
  report_stats(stats, threads, mem, opt.measure);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  if (!parse_args(argc, argv, a)) return usage();
  try {
    const std::size_t threads =
        a.num("threads", memu::engine::default_worker_count());
    // Flag-wins: --mem, else MEMU_MEM_BUDGET, else unbudgeted.
    const MemBudget mem = memu::env::mem_budget_or(a.opt("mem"));
    if (a.has("fig1")) return cmd_fig1(a, threads, mem);
    return cmd_sweep(a, threads, mem);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
}

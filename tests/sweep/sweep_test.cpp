#include "sweep/sweep.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>
#include <string>

#include "common/arena.h"
#include "common/check.h"
#include "sweep/fig1.h"
#include "sweep/measure.h"

namespace memu::sweep {
namespace {

std::string run_csv(SweepOptions opt) {
  std::ostringstream out;
  CsvSink sink(out);
  run_sweep(opt, sink);
  return out.str();
}

std::string run_json(SweepOptions opt) {
  std::ostringstream out;
  JsonSink sink(out);
  run_sweep(opt, sink);
  return out.str();
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

TEST(FormatValue, NanIsEmptyAndDigitsAreStable) {
  EXPECT_EQ(format_value(std::nan("")), "");
  EXPECT_EQ(format_value(1.5), "1.5");
  EXPECT_EQ(format_value(11.0), "11");
  EXPECT_EQ(format_value(21.0 / 11.0), "1.909090909");
}

TEST(EvaluateBounds, Figure1CornerValues) {
  const BoundsRow r = evaluate_bounds(Cell{21, 10, 16, 960});
  EXPECT_DOUBLE_EQ(r.nu_star, 11.0);            // min(16, f + 1)
  EXPECT_DOUBLE_EQ(r.thm_b1, 21.0 / 11.0);      // N/(N-f)
  EXPECT_DOUBLE_EQ(r.thm_41, 42.0 / 12.0);      // 2N/(N-f+1)
  EXPECT_DOUBLE_EQ(r.thm_51, 42.0 / 13.0);      // 2N/(N-f+2)
  EXPECT_DOUBLE_EQ(r.thm_65, 11.0 * 21.0 / 21.0);  // nu*N/(N-f+nu*-1)
  EXPECT_DOUBLE_EQ(r.abd, 11.0);                // f+1
  EXPECT_DOUBLE_EQ(r.erasure, 16.0 * 21.0 / 11.0);
  EXPECT_DOUBLE_EQ(r.cas_model, 17.0 * 21.0);   // k = 1
}

TEST(EvaluateBounds, InapplicableColumnsAreNaN) {
  // f = 1: Theorem 4.1 needs f >= 2. N = 4, f = 2: k = 0, no CAS model.
  EXPECT_TRUE(std::isnan(evaluate_bounds(Cell{5, 1, 2, 64}).thm_41));
  EXPECT_TRUE(std::isnan(evaluate_bounds(Cell{4, 2, 2, 64}).cas_model));
  EXPECT_FALSE(std::isnan(evaluate_bounds(Cell{5, 2, 2, 64}).thm_41));
}

TEST(MemoKeyFor, LogVBucketsByByteAndClampsToMinimum) {
  // All logV in 1..96 clamp to the simulator's 12-byte minimum payload —
  // one simulation serves them all.
  EXPECT_EQ(memo_key_for(Cell{5, 1, 2, 1}).value_size, 12u);
  EXPECT_EQ(memo_key_for(Cell{5, 1, 2, 96}).value_size, 12u);
  EXPECT_EQ(memo_key_for(Cell{5, 1, 2, 97}).value_size, 13u);
  EXPECT_EQ(memo_key_for(Cell{5, 1, 2, 960}).value_size, 120u);
  EXPECT_TRUE(memo_key_for(Cell{5, 1, 2, 8}) ==
              memo_key_for(Cell{5, 1, 2, 64}));
}

// ---- the determinism contract ----------------------------------------------

SweepOptions bounds_grid_options() {
  SweepOptions opt;
  opt.grid = GridSpec::parse("N=3:21:2,f=1:10,nu=1:4,logV=8:64:8");
  return opt;  // 3200 cells, bounds only: 12.5 blocks of 256
}

TEST(RunSweep, CsvByteIdenticalAcrossThreadWidths) {
  SweepOptions opt = bounds_grid_options();
  opt.threads = 1;
  const std::string serial = run_csv(opt);
  for (const std::size_t threads : {2u, 4u}) {
    opt.threads = threads;
    EXPECT_EQ(run_csv(opt), serial) << "threads=" << threads;
  }
}

TEST(RunSweep, JsonByteIdenticalAcrossThreadWidths) {
  SweepOptions opt = bounds_grid_options();
  opt.threads = 1;
  const std::string serial = run_json(opt);
  opt.threads = 4;
  EXPECT_EQ(run_json(opt), serial);
}

TEST(RunSweep, MeasuredCsvByteIdenticalAcrossThreadWidths) {
  SweepOptions opt;
  opt.grid = GridSpec::parse("N=3:7:2,f=1:2,nu=1:2,logV=96");
  opt.measure = true;
  opt.threads = 1;
  const std::string serial = run_csv(opt);
  for (const std::size_t threads : {2u, 4u}) {
    opt.threads = threads;
    EXPECT_EQ(run_csv(opt), serial) << "threads=" << threads;
  }
}

TEST(RunSweep, MemoHitAndMissProduceIdenticalRows) {
  SweepOptions opt;
  // logV=8:96:8 collapses to ONE simulation per (N, f, nu) byte bucket:
  // eleven of twelve measured cells are memo hits.
  opt.grid = GridSpec::parse("N=5,f=1:2,nu=1:2,logV=8:96:8");
  opt.measure = true;
  // The same CSV rebuilt cell by cell, simulating every cell afresh.
  std::ostringstream expected;
  CsvSink sink(expected);
  sink.begin(opt);
  for (std::size_t i = 0; i < opt.grid.cells(); ++i) {
    const Cell c = opt.grid.cell(i);
    if (!c.valid()) continue;
    const MeasuredRow measured = evaluate_measured(c);
    sink.row(c, evaluate_bounds(c), &measured);
  }
  sink.end();
  EXPECT_EQ(run_csv(opt), expected.str());
}

TEST(RunSweep, MemoStatsAreIdenticalAtAnyThreadCount) {
  SweepOptions opt;
  opt.grid = GridSpec::parse("N=3:9:2,f=1:3,nu=1:4,logV=8:96:8");
  opt.measure = true;
  std::set<MemoKey> keys;
  std::size_t rows = 0;
  for (std::size_t i = 0; i < opt.grid.cells(); ++i) {
    const Cell c = opt.grid.cell(i);
    if (!c.valid()) continue;
    keys.insert(memo_key_for(c));
    ++rows;
  }
  for (const std::size_t threads : {1u, 2u, 4u}) {
    opt.threads = threads;
    std::ostringstream out;
    CsvSink sink(out);
    const SweepStats stats = run_sweep(opt, sink);
    EXPECT_EQ(stats.memo_misses, keys.size()) << "threads=" << threads;
    EXPECT_EQ(stats.memo_hits, rows - keys.size()) << "threads=" << threads;
  }
}

TEST(RunSweep, MemTooSmallForTheKeyTableFailsLoudly) {
  SweepOptions opt;
  // Hundreds of distinct simulations; their table cannot fit 4 KiB.
  opt.grid = GridSpec::parse("N=3:21:2,f=1:10,nu=1:20,logV=8");
  opt.measure = true;
  opt.mem = MemBudget::parse("8K");
  std::ostringstream out;
  CsvSink sink(out);
  try {
    run_sweep(opt, sink);
    FAIL() << "expected the key table to exceed its --mem share";
  } catch (const ContractError& e) {
    EXPECT_NE(std::string(e.what()).find("--mem"), std::string::npos)
        << e.what();
  }
  EXPECT_TRUE(out.str().empty());  // fails before any output
}

TEST(RunSweep, TinyMemBudgetDoesNotChangeOutput) {
  SweepOptions opt;
  opt.grid = GridSpec::parse("N=3:7:2,f=1:2,nu=1:3,logV=8:32:8");
  opt.measure = true;
  const std::string unbudgeted = run_csv(opt);
  opt.mem = MemBudget::parse("8K");  // key table and window both squeezed
  opt.threads = 4;
  EXPECT_EQ(run_csv(opt), unbudgeted);
}

TEST(RunSweep, SkipsInvalidCellsButCountsThem) {
  SweepOptions opt;
  opt.grid = GridSpec::parse("N=3,f=1:5,nu=1,logV=8");
  std::ostringstream out;
  CsvSink sink(out);
  const SweepStats stats = run_sweep(opt, sink);
  EXPECT_EQ(stats.cells, 5u);
  EXPECT_EQ(stats.rows, 2u);     // f = 1, 2 only: N <= f has no bounds
  EXPECT_EQ(stats.skipped, 3u);
}

TEST(RunSweep, MemoStatsSeeSharedCells) {
  SweepOptions opt;
  opt.grid = GridSpec::parse("N=5,f=1,nu=1,logV=8:96:8");  // one byte bucket
  opt.measure = true;
  opt.threads = 1;
  std::ostringstream out;
  CsvSink sink(out);
  const SweepStats stats = run_sweep(opt, sink);
  EXPECT_EQ(stats.memo_misses, 1u);
  EXPECT_EQ(stats.memo_hits, 11u);
}

TEST(RunSweep, MeasuredColumnsEmptyBelowQuorumThreshold) {
  SweepOptions opt;
  opt.grid = GridSpec::parse("N=4,f=2,nu=1,logV=8");  // N < 2f + 1
  opt.measure = true;
  const std::string csv = run_csv(opt);
  const std::size_t last_nl = csv.find_last_of('\n', csv.size() - 2);
  // The measured columns are the final four fields; all empty here.
  EXPECT_EQ(csv.substr(csv.size() - 5), ",,,,\n") << csv.substr(last_nl);
}

TEST(JsonSink, OmitsInapplicableColumns) {
  SweepOptions opt;
  opt.grid = GridSpec::parse("N=5,f=1,nu=2,logV=64");
  const std::string json = run_json(opt);
  EXPECT_EQ(json.find("thm_41"), std::string::npos) << json;  // f = 1
  EXPECT_NE(json.find("\"thm_b1\":"), std::string::npos);
  EXPECT_NE(json.find("\"cas_model\":"), std::string::npos);  // k = 3
  EXPECT_EQ(json.back(), '\n');
}

TEST(Fig1, WriterIsDeterministicAcrossThreadWidths) {
  Fig1Options opt;
  opt.out_dir = testing::TempDir() + "fig1_t1";
  ASSERT_EQ(std::system(("mkdir -p " + opt.out_dir).c_str()), 0);
  opt.threads = 1;
  const Fig1Result r1 = write_figure1(opt);
  EXPECT_EQ(r1.stats.rows, 16u);  // nu = 1..16, one row each

  Fig1Options opt4 = opt;
  opt4.out_dir = testing::TempDir() + "fig1_t4";
  ASSERT_EQ(std::system(("mkdir -p " + opt4.out_dir).c_str()), 0);
  opt4.threads = 4;
  opt4.mem = MemBudget::parse("64M");
  const Fig1Result r4 = write_figure1(opt4);

  EXPECT_EQ(slurp(r1.csv_path), slurp(r4.csv_path));
  EXPECT_EQ(slurp(r1.gp_path), slurp(r4.gp_path));
  // 11 header columns and 16 data rows, no scheduling-dependent content.
  const std::string csv = slurp(r1.csv_path);
  EXPECT_NE(csv.find("nu,thm_b1,thm_41,thm_51,thm_65,abd,erasure,"
                     "abd_meas,cas_meas,casgc_meas,ldr_meas"),
            std::string::npos);
}

}  // namespace
}  // namespace memu::sweep

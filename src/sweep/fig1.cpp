#include "sweep/fig1.h"

#include <fstream>

#include "common/check.h"

namespace memu::sweep {

namespace {

// Figure 1's y axis only: the rational-form curves plus the measured
// columns. One row per nu (N, f, and B are fixed by the grid).
class Fig1CsvSink : public RowSink {
 public:
  explicit Fig1CsvSink(std::ostream& out) : out_(out) {}

  void begin(const SweepOptions& opt) override {
    out_ << "# Figure 1 reproduction: normalized total storage vs active "
            "writes (grid "
         << opt.grid.to_string() << ")\n"
         << "# regenerate with: memu fig1\n"
         << "nu,thm_b1,thm_41,thm_51,thm_65,abd,erasure,"
            "abd_meas,cas_meas,casgc_meas,ldr_meas\n";
  }

  void row(const Cell& cell, const BoundsRow& b,
           const MeasuredRow* m) override {
    MEMU_CHECK_MSG(m != nullptr, "the Figure 1 sweep measures");
    std::string line = std::to_string(cell.nu);
    for (const double v : {b.thm_b1, b.thm_41, b.thm_51, b.thm_65, b.abd,
                           b.erasure, m->abd, m->cas, m->casgc, m->ldr}) {
      line += ',';
      line += format_value(v);
    }
    line += '\n';
    out_ << line;
  }

 private:
  std::ostream& out_;
};

// The script is static text: everything configuration-dependent lives in
// the CSV it plots. cas_meas/casgc_meas are left out of the plot (at
// f ~ N/2 the code dimension is 1 and they climb to (nu+1)N, flattening
// every other curve) but stay in the CSV for the f < N/2 analyses.
const char* const kGnuplotScript =
    R"(# Figure 1 — Information-Theoretic Lower Bounds on the Storage Cost of
# Shared Memory Emulation (PODC 2016), N = 21, f = 10.
# Data: fig1_data.csv (regenerate both files with: memu fig1)
# Render: gnuplot fig1_plot.gp   (writes fig1.svg)
set datafile separator ','
set terminal svg size 900,600 dynamic background rgb 'white'
set output 'fig1.svg'
set title 'Storage cost bounds at N = 21, f = 10 (normalized by log_2|V|)'
set xlabel 'number of active writes {/Symbol n}'
set ylabel 'total storage / log_2|V|'
set key left top
set grid
set xrange [1:16]
set yrange [0:14]
plot 'fig1_data.csv' skip 1 using 1:2 with lines lw 2 title 'Thm B.1: N/(N-f)', \
     '' skip 1 using 1:3 with lines lw 2 title 'Thm 4.1: 2N/(N-f+1)', \
     '' skip 1 using 1:4 with lines lw 2 title 'Thm 5.1: 2N/(N-f+2)', \
     '' skip 1 using 1:5 with lines lw 2 title 'Thm 6.5: {/Symbol n}*N/(N-f+{/Symbol n}*-1)', \
     '' skip 1 using 1:6 with lines lw 2 dashtype 2 title 'ABD (replication): f+1', \
     '' skip 1 using 1:7 with lines lw 2 dashtype 2 title 'erasure: {/Symbol n}N/(N-f)', \
     '' skip 1 using 1:8 with points pt 7 ps 0.6 title 'ABD measured (parked)', \
     '' skip 1 using 1:11 with points pt 5 ps 0.6 title 'LDR measured (steady)'
)";

}  // namespace

GridSpec figure1_grid() {
  GridSpec g;
  g.n = {21, 21, 1};
  g.f = {10, 10, 1};
  g.nu = {1, 16, 1};
  g.logv = {960, 960, 1};
  return g;
}

Fig1Result write_figure1(const Fig1Options& opt) {
  Fig1Result result;
  result.csv_path = opt.out_dir + "/fig1_data.csv";
  result.gp_path = opt.out_dir + "/fig1_plot.gp";

  std::ofstream csv(result.csv_path);
  MEMU_CHECK_MSG(csv.good(), "cannot open " << result.csv_path
                                            << " for writing (does "
                                            << opt.out_dir << " exist?)");
  SweepOptions sopt;
  sopt.grid = figure1_grid();
  sopt.measure = true;
  sopt.threads = opt.threads;
  sopt.mem = opt.mem;
  Fig1CsvSink sink(csv);
  result.stats = run_sweep(sopt, sink);
  csv.close();
  MEMU_CHECK_MSG(csv.good(), "write to " << result.csv_path << " failed");

  std::ofstream gp(result.gp_path);
  MEMU_CHECK_MSG(gp.good(), "cannot open " << result.gp_path);
  gp << kGnuplotScript;
  gp.close();
  MEMU_CHECK_MSG(gp.good(), "write to " << result.gp_path << " failed");
  return result;
}

}  // namespace memu::sweep

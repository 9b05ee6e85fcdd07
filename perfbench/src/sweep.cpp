// sweep-grid: measured parameter-grid sweep at 2 threads, plus Figure 1.
//
//   phase 1 (grid): N=3:21:2, f=1:10, nu=1:20, logV=s:s+49 with the seed
//                   picking s <= 47, so every cell keeps value_size=12:
//                   100,000 cells, 80,000 rows, 1,600 distinct simulations
//                   and ~98% memo hits. The CSV is digested, not stored.
//   phase 2 (fig1): regenerate Figure 1 and compare it byte for byte with
//                   the committed bench/fig1/fig1_data.csv.
//
// Parked-write simulation at large N (algo, codec, workload) dominates;
// bounds evaluation and row formatting are the cheap side. This is the
// only workload that runs the thread pool and the ordered window flush.
#include <array>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <streambuf>
#include <string>
#include <vector>

#include "bench.h"
#include "inputs.h"
#include "sweep/fig1.h"
#include "sweep/measure.h"
#include "sweep/sweep.h"

namespace perfbench {
namespace {

using namespace memu::sweep;

constexpr std::size_t kThreads = 2;
constexpr std::size_t kBoundsBlock = 256;   // traced: cells per bounds span
constexpr std::size_t kSinkSampleEvery = 8;  // traced: one sink span per 8 rows
constexpr std::size_t kParkedSampleEvery = 16;  // traced: workload samples

// FNV-1a over every byte written: a CSV digest without keeping the CSV.
class HashBuf : public std::streambuf {
 public:
  std::uint64_t digest() const { return h_; }

 protected:
  int_type overflow(int_type c) override {
    if (c != traits_type::eof()) mix(static_cast<char>(c));
    return traits_type::not_eof(c);
  }
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    for (std::streamsize i = 0; i < n; ++i) mix(s[i]);
    return n;
  }

 private:
  void mix(char c) { h_ = (h_ ^ static_cast<unsigned char>(c)) * 0x100000001b3ull; }
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

struct CsvDigest {
  HashBuf buf;
  std::ostream os{&buf};
  CsvSink csv{os};
};

// Traced: forwards rows and records a span around every kSinkSampleEvery-th.
class TimedSink : public RowSink {
 public:
  TimedSink(RowSink& inner, int parent) : inner_(inner), parent_(parent) {}
  void begin(const SweepOptions& opt) override { inner_.begin(opt); }
  void row(const Cell& cell, const BoundsRow& bounds,
           const MeasuredRow* measured) override {
    if (rows_++ % kSinkSampleEvery != 0) return inner_.row(cell, bounds, measured);
    Span span("sweep.sink_row", rows_, parent_);
    inner_.row(cell, bounds, measured);
  }
  void end() override { inner_.end(); }

 private:
  RowSink& inner_;
  int parent_;
  std::size_t rows_ = 0;
};

SweepOptions grid_options(const std::string& grid) {
  SweepOptions opt;
  opt.grid = GridSpec::parse(grid);
  opt.measure = true;
  opt.threads = kThreads;
  return opt;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream s;
  s << in.rdbuf();
  return s.str();
}

using KeyTuple = std::array<std::uint32_t, 5>;
KeyTuple tuple_of(const MemoKey& k) { return {k.n, k.f, k.k, k.nu, k.value_size}; }

// The grid's CSV rebuilt cell by cell, serially, from evaluate_bounds /
// evaluate_measured and a plain CsvSink — independent of run_sweep's
// sharding, memo and window flush. Returns the CSV digest.
std::uint64_t reconstruct(const SweepOptions& opt) {
  Span span("sweep.reconstruct");
  const std::size_t total = opt.grid.cells();
  std::vector<BoundsRow> bounds(total);
  for (std::size_t b = 0; b < total; b += kBoundsBlock) {
    Span block("sweep.evaluate_bounds", b / kBoundsBlock);
    for (std::size_t i = b; i < std::min(total, b + kBoundsBlock); ++i) {
      const Cell c = opt.grid.cell(i);
      if (c.valid()) bounds[i] = evaluate_bounds(c);
    }
  }
  std::map<KeyTuple, MeasuredRow> measured;
  for (std::size_t i = 0; i < total; ++i) {
    const Cell c = opt.grid.cell(i);
    if (!c.valid()) continue;
    const KeyTuple key = tuple_of(memo_key_for(c));
    if (measured.contains(key)) continue;
    Span sim("sweep.evaluate_measured", measured.size());
    measured.emplace(key, evaluate_measured(c));
  }
  CsvDigest digest;
  {
    Span format("sweep.format_rows");
    digest.csv.begin(opt);
    for (std::size_t i = 0; i < total; ++i) {
      const Cell c = opt.grid.cell(i);
      if (c.valid()) digest.csv.row(c, bounds[i], &measured.at(tuple_of(memo_key_for(c))));
    }
    digest.csv.end();
  }
  return digest.buf.digest();
}

// Traced: times the four simulations behind a measured row directly, on
// every kParkedSampleEvery-th distinct simulation key of the grid.
void sample_workloads(const SweepOptions& opt) {
  std::set<KeyTuple> seen;
  std::size_t keys = 0;
  for (std::size_t i = 0; i < opt.grid.cells(); ++i) {
    const Cell c = opt.grid.cell(i);
    if (!c.valid() || c.n < 2 * c.f + 1) continue;
    const MemoKey k = memo_key_for(c);
    if (!seen.insert(tuple_of(k)).second || keys++ % kParkedSampleEvery != 0)
      continue;
    {
      Span span("workload.parked_abd", keys);
      parked_abd(k.n, k.f, k.nu, k.value_size);
    }
    {
      Span span("workload.parked_cas", keys);
      parked_cas(k.n, k.f, k.k, k.nu, std::nullopt, k.value_size);
    }
    {
      Span span("workload.parked_casgc", keys);
      parked_cas(k.n, k.f, k.k, k.nu, std::size_t{k.nu}, k.value_size);
    }
    Span span("workload.steady_ldr", keys);
    steady_ldr(k.n, k.f, k.nu, k.value_size);
  }
}

}  // namespace

void run_sweep(const RunConfig& cfg, Outcome& out) {
  const std::string committed_path = cfg.root + "/bench/fig1/fig1_data.csv";
  const std::string fig1_dir = cfg.out_dir + "/fig1";
  std::filesystem::create_directories(fig1_dir);
  const SweepOptions opt = grid_options(sweep_grid(cfg.seed));
  std::string committed;
  std::optional<std::uint64_t> first_digest;

  const auto grid = [&](SweepStats* stats_out, int parent) {
    CsvDigest digest;
    SweepStats stats;
    if (parent >= 0) {
      TimedSink timed(digest.csv, parent);
      stats = memu::sweep::run_sweep(opt, timed);
    } else {
      stats = memu::sweep::run_sweep(opt, digest.csv);
    }
    out.check(stats.cells == 100000 && stats.rows == 80000,
              "grid has 100000 cells and 80000 rows");
    if (!first_digest) first_digest = digest.buf.digest();
    out.check(digest.buf.digest() == *first_digest, "CSV digest is stable");
    if (stats_out != nullptr) *stats_out = stats;
    return digest.buf.digest();
  };
  const auto fig1 = [&](std::size_t) {
    // Regenerate into fresh files: truncating an existing file makes ext4
    // write it back on close, which would time the disk, not the sweep.
    std::filesystem::remove(fig1_dir + "/fig1_data.csv");
    std::filesystem::remove(fig1_dir + "/fig1_plot.gp");
    Fig1Options fo;
    fo.out_dir = fig1_dir;
    fo.threads = 1;
    const Fig1Result r = write_figure1(fo);
    out.check(read_file(r.csv_path) == committed,
              "regenerated Figure 1 CSV is byte-identical to " + committed_path);
  };

  // Set-up: read the committed artifact, parse the grid, and warm the pool
  // and simulators with an eight-nu slice of the grid.
  out.set("setup_s", median_setup(5, [&] {
            committed = read_file(committed_path);
            SweepOptions warm = grid_options(
                "N=3:21:2,f=1:10,nu=1:8,logV=" + std::to_string(sweep_logv_start(cfg.seed)));
            CsvDigest digest;
            memu::sweep::run_sweep(warm, digest.csv);
          }),
          "s");
  out.check(!committed.empty(), committed_path + " is readable");

  if (!cfg.trace) {
    const PhaseWalls w = alternate_for(
        cfg.seconds, 3, [&](std::size_t) { grid(nullptr, -1); }, fig1);
    out.set("phase1_per_s",
            ratio(static_cast<double>(opt.grid.cells()), median(w.phase1)), "1/s");
    out.set("phase2_per_s", ratio(1, median(w.phase2)), "1/s");
    out.check(reconstruct(opt) == *first_digest,
              "CSV digest equals the cell-by-cell reconstruction");
    return;
  }

  double untraced_sweep_seconds = 0;
  SweepStats traced_stats;
  const std::size_t units = traced_pairs(
      cfg.seconds,
      [&](std::size_t rep) {
        const auto t = Clock::now();
        grid(nullptr, -1);
        untraced_sweep_seconds += seconds_since(t);
        fig1(rep);
      },
      [&](std::size_t rep) {
        std::uint64_t digest = 0;
        {
          Span span("sweep.run_sweep", rep);
          digest = grid(&traced_stats, span.id());
        }
        out.check(reconstruct(opt) == digest,
                  "CSV digest equals the cell-by-cell reconstruction");
        sample_workloads(opt);
        Span span("sweep.write_figure1", rep);
        fig1(rep);
      },
      out);

  const std::vector<SpanRecord> spans = tracer().snapshot();
  std::size_t valid = 0;
  for (std::size_t i = 0; i < opt.grid.cells(); ++i) valid += opt.grid.cell(i).valid();
  const double bounds_ns = span_seconds(spans, "sweep.evaluate_bounds", units) * 1e9;
  const double serial_work = span_seconds(spans, "sweep.evaluate_bounds", 1) +
                             span_seconds(spans, "sweep.evaluate_measured", 1) +
                             span_seconds(spans, "sweep.format_rows", 1);
  out.set("sweep.bounds_ns_per_cell", ratio(bounds_ns, static_cast<double>(valid)), "ns");
  out.set("sweep.simulate_ms_per_key",
          median(span_durations_ns(spans, "sweep.evaluate_measured")) / 1e6, "ms");
  out.set("sweep.sink_ns_per_row", median(span_durations_ns(spans, "sweep.sink_row")),
          "ns");
  out.set("sweep.memo_hit_ratio",
          ratio(static_cast<double>(traced_stats.memo_hits),
                static_cast<double>(traced_stats.memo_hits + traced_stats.memo_misses)),
          "ratio");
  out.set("sweep.memo_bytes", static_cast<double>(traced_stats.memo_bytes), "B");
  out.set("sweep.parallel_efficiency",
          ratio(serial_work, static_cast<double>(kThreads) * untraced_sweep_seconds),
          "ratio");
  out.set("workload.parked_abd_ms",
          median(span_durations_ns(spans, "workload.parked_abd")) / 1e6, "ms");
  out.set("workload.parked_cas_ms",
          median(span_durations_ns(spans, "workload.parked_cas")) / 1e6, "ms");
  out.set("workload.parked_casgc_ms",
          median(span_durations_ns(spans, "workload.parked_casgc")) / 1e6, "ms");
  out.set("workload.steady_ldr_ms",
          median(span_durations_ns(spans, "workload.steady_ldr")) / 1e6, "ms");
}

}  // namespace perfbench

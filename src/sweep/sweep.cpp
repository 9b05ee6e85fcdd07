#include "sweep/sweep.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <limits>
#include <vector>

#include "bounds/bounds.h"
#include "engine/thread_pool.h"
#include "registers/value.h"
#include "sweep/measure.h"

namespace memu::sweep {

namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
// Cells per block: the grain of parallel_for and of the in-order flush.
// Output does not depend on it.
constexpr std::size_t kBlockCells = 256;

bounds::Params params_for(const Cell& c) {
  bounds::Params p;
  p.n = c.n;
  p.f = c.f;
  p.log2_v = static_cast<double>(c.log2_v);
  return p;
}

}  // namespace

BoundsRow evaluate_bounds(const Cell& c) {
  MEMU_CHECK(c.valid());
  const bounds::Params p = params_for(c);
  const double b = p.log2_v;
  const std::size_t ns = bounds::nu_star(c.nu, c.f);
  BoundsRow r;
  r.nu_star = static_cast<double>(ns);
  r.abd = bounds::abd_ideal_normalized(c.f);
  r.erasure = bounds::erasure_normalized(c.n, c.f, c.nu);
  // Theorem applicability mirrors the f floors the exact forms validate;
  // the normalized and exact columns of one theorem go NaN together so a
  // row never quotes an asymptote whose theorem does not apply.
  if (c.f >= 1) {
    r.thm_b1 = bounds::singleton_normalized(c.n, c.f);
    r.b1_exact = bounds::singleton_total(p) / b;
    r.thm_51 = bounds::universal_normalized(c.n, c.f);
    r.thm51_exact = bounds::universal_total(p) / b;
    r.thm_65 = bounds::restricted_normalized(c.n, c.f, c.nu);
    // The exact Thm 6.5 form needs |V| - 1 >= nu* choices of distinct
    // versions; tiny value domains cannot host the construction.
    const bool binom_ok =
        !p.v_exact() || p.v() - 1 >= static_cast<double>(ns);
    r.thm65_exact = binom_ok ? bounds::restricted_total(p, c.nu) / b : kNaN;
  } else {
    r.thm_b1 = r.b1_exact = kNaN;
    r.thm_51 = r.thm51_exact = kNaN;
    r.thm_65 = r.thm65_exact = kNaN;
  }
  if (c.f >= 2) {
    r.thm_41 = bounds::no_gossip_normalized(c.n, c.f);
    r.thm41_exact = bounds::no_gossip_total(p) / b;
  } else {
    r.thm_41 = r.thm41_exact = kNaN;
  }
  const std::size_t k = c.n > 2 * c.f ? c.n - 2 * c.f : 0;
  r.cas_model =
      k >= 1 ? bounds::cas_total(p, c.nu, k) / b : kNaN;
  return r;
}

MemoKey memo_key_for(const Cell& c) {
  MemoKey key;
  key.n = static_cast<std::uint32_t>(c.n);
  key.f = static_cast<std::uint32_t>(c.f);
  key.k = static_cast<std::uint32_t>(c.n > 2 * c.f ? c.n - 2 * c.f : 0);
  key.nu = static_cast<std::uint32_t>(c.nu);
  key.value_size = static_cast<std::uint32_t>(
      std::max(kMinValueSize, (c.log2_v + 7) / 8));
  return key;
}

namespace {

MeasuredRow simulate(const MemoKey& key) {
  MeasuredRow row;
  row.abd = row.cas = row.casgc = row.ldr = kNaN;
  // Majority-quorum systems (ABD, LDR's 2f+1 replicas) need N >= 2f + 1;
  // CAS additionally needs code dimension k = N - 2f >= 1 — the same
  // threshold. Below it no implemented algorithm is live under f faults.
  if (key.n < 2 * key.f + 1) return row;
  row.abd = parked_abd(key.n, key.f, key.nu, key.value_size);
  row.cas = parked_cas(key.n, key.f, key.k, key.nu, std::nullopt,
                       key.value_size);
  row.casgc = parked_cas(key.n, key.f, key.k, key.nu,
                         std::size_t{key.nu}, key.value_size);
  row.ldr = steady_ldr(key.n, key.f, key.nu, key.value_size);
  return row;
}

}  // namespace

MeasuredRow evaluate_measured(const Cell& c) {
  return simulate(memo_key_for(c));
}

std::string format_value(double v) {
  if (std::isnan(v)) return "";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

// ---- sinks -----------------------------------------------------------------

namespace {

const char* const kBoundsHeader =
    "n,f,nu,logV,nu_star,thm_b1,thm_41,thm_51,thm_65,abd,erasure,"
    "b1_exact,thm41_exact,thm51_exact,thm65_exact,cas_model";
const char* const kMeasuredHeader = ",abd_meas,cas_meas,casgc_meas,ldr_meas";

void append_bounds_fields(std::string& line, const BoundsRow& b) {
  for (const double v :
       {b.nu_star, b.thm_b1, b.thm_41, b.thm_51, b.thm_65, b.abd, b.erasure,
        b.b1_exact, b.thm41_exact, b.thm51_exact, b.thm65_exact,
        b.cas_model}) {
    line += ',';
    line += format_value(v);
  }
}

void append_json_field(std::string& body, const char* name, double v) {
  if (std::isnan(v)) return;
  body += ",\"";
  body += name;
  body += "\":";
  body += format_value(v);
}

}  // namespace

void CsvSink::begin(const SweepOptions& opt) {
  out_ << "# memu sweep grid=" << opt.grid.to_string()
       << " measure=" << (opt.measure ? 1 : 0) << '\n'
       << kBoundsHeader << (opt.measure ? kMeasuredHeader : "") << '\n';
}

void CsvSink::row(const Cell& cell, const BoundsRow& bounds,
                  const MeasuredRow* measured) {
  std::string line;
  line.reserve(192);
  line += std::to_string(cell.n);
  line += ',';
  line += std::to_string(cell.f);
  line += ',';
  line += std::to_string(cell.nu);
  line += ',';
  line += std::to_string(cell.log2_v);
  append_bounds_fields(line, bounds);
  if (measured != nullptr) {
    for (const double v :
         {measured->abd, measured->cas, measured->casgc, measured->ldr}) {
      line += ',';
      line += format_value(v);
    }
  }
  line += '\n';
  out_ << line;
}

void JsonSink::begin(const SweepOptions& opt) {
  out_ << "{\"sweep\":\"memu sweep\",\"grid\":\"" << opt.grid.to_string()
       << "\",\"measure\":" << (opt.measure ? "true" : "false")
       << ",\"rows\":[";
  first_ = true;
}

void JsonSink::row(const Cell& cell, const BoundsRow& b,
                   const MeasuredRow* measured) {
  std::string body;
  body.reserve(256);
  if (!first_) body += ',';
  first_ = false;
  body += "{\"n\":";
  body += std::to_string(cell.n);
  body += ",\"f\":";
  body += std::to_string(cell.f);
  body += ",\"nu\":";
  body += std::to_string(cell.nu);
  body += ",\"logV\":";
  body += std::to_string(cell.log2_v);
  append_json_field(body, "nu_star", b.nu_star);
  append_json_field(body, "thm_b1", b.thm_b1);
  append_json_field(body, "thm_41", b.thm_41);
  append_json_field(body, "thm_51", b.thm_51);
  append_json_field(body, "thm_65", b.thm_65);
  append_json_field(body, "abd", b.abd);
  append_json_field(body, "erasure", b.erasure);
  append_json_field(body, "b1_exact", b.b1_exact);
  append_json_field(body, "thm41_exact", b.thm41_exact);
  append_json_field(body, "thm51_exact", b.thm51_exact);
  append_json_field(body, "thm65_exact", b.thm65_exact);
  append_json_field(body, "cas_model", b.cas_model);
  if (measured != nullptr) {
    append_json_field(body, "abd_meas", measured->abd);
    append_json_field(body, "cas_meas", measured->cas);
    append_json_field(body, "casgc_meas", measured->casgc);
    append_json_field(body, "ldr_meas", measured->ldr);
  }
  body += '}';
  out_ << body;
}

void JsonSink::end() { out_ << "]}\n"; }

// ---- the engine ------------------------------------------------------------

SweepStats run_sweep(const SweepOptions& opt, RowSink& sink) {
  const auto t0 = std::chrono::steady_clock::now();
  const std::size_t total = opt.grid.cells();
  const std::size_t block = kBlockCells;
  const std::size_t nblocks = (total + block - 1) / block;
  const std::size_t threads = std::max<std::size_t>(1, opt.threads);

  struct OutRow {
    Cell cell;
    BoundsRow bounds;
    MeasuredRow measured;
  };

  // The key table holds half the budget; the in-flight row window a
  // quarter (the remainder covers transient simulation state). Unbudgeted
  // sweeps keep a window of a few blocks per worker — enough to keep
  // thieves fed while the flusher drains in order.
  std::size_t window = threads * 4;
  if (opt.mem.bounded()) {
    const std::size_t block_bytes = block * sizeof(OutRow);
    const std::size_t cap =
        std::max<std::size_t>(1, (opt.mem.total / 4) / block_bytes);
    window = std::clamp<std::size_t>(window, 1, cap);
  }
  window = std::min(window, std::max<std::size_t>(1, nblocks));

  SweepStats stats;
  stats.cells = total;

  // The key table: every distinct simulation the grid needs, sorted, and
  // simulated once each before any row streams. logV is the innermost
  // axis, so adjacent cells usually share a key.
  std::vector<MemoKey> keys;
  std::vector<MeasuredRow> measured;
  if (opt.measure) {
    for (std::size_t i = 0; i < total; ++i) {
      const Cell c = opt.grid.cell(i);
      if (!c.valid()) continue;
      const MemoKey key = memo_key_for(c);
      if (keys.empty() || keys.back() != key) keys.push_back(key);
    }
    std::sort(keys.begin(), keys.end());
    keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
    stats.memo_bytes = keys.size() * (sizeof(MemoKey) + sizeof(MeasuredRow));
    MEMU_CHECK_MSG(!opt.mem.bounded() || stats.memo_bytes <= opt.mem.total / 2,
                   "sweep key table needs "
                       << stats.memo_bytes << " B for " << keys.size()
                       << " distinct simulations, over the half of --mem "
                       << opt.mem.to_string() << " it may use; rerun with"
                       << " --mem >= "
                       << MemBudget{2 * stats.memo_bytes}.to_string());
    measured.resize(keys.size());
    engine::parallel_for(threads, keys.size(), [&](std::size_t i) {
      measured[i] = simulate(keys[i]);
    });
  }
  const auto lookup = [&](const Cell& c) -> const MeasuredRow& {
    const auto it =
        std::lower_bound(keys.begin(), keys.end(), memo_key_for(c));
    return measured[static_cast<std::size_t>(it - keys.begin())];
  };

  std::vector<std::vector<OutRow>> results(window);
  sink.begin(opt);
  for (std::size_t w0 = 0; w0 < nblocks; w0 += window) {
    const std::size_t wn = std::min(window, nblocks - w0);
    engine::parallel_for(threads, wn, [&](std::size_t wi) {
      std::vector<OutRow>& rows = results[wi];
      rows.clear();
      const std::size_t begin = (w0 + wi) * block;
      const std::size_t end = std::min(total, begin + block);
      for (std::size_t i = begin; i < end; ++i) {
        const Cell c = opt.grid.cell(i);
        if (!c.valid()) continue;
        OutRow r;
        r.cell = c;
        r.bounds = evaluate_bounds(c);
        if (opt.measure) r.measured = lookup(c);
        rows.push_back(r);
      }
    });
    // Flush the window in block order: this sequential drain is what turns
    // a racy parallel fill into the deterministic cell ordering contract.
    for (std::size_t wi = 0; wi < wn; ++wi) {
      for (const OutRow& r : results[wi]) {
        sink.row(r.cell, r.bounds, opt.measure ? &r.measured : nullptr);
        ++stats.rows;
      }
    }
  }
  sink.end();

  stats.skipped = stats.cells - stats.rows;
  if (opt.measure) {
    stats.memo_misses = keys.size();
    stats.memo_hits = stats.rows - keys.size();
  }
  stats.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  stats.cells_per_sec =
      stats.seconds > 0 ? static_cast<double>(stats.cells) / stats.seconds : 0;
  return stats;
}

}  // namespace memu::sweep

#include "adversary/theorem65.h"

#include <algorithm>
#include <cmath>
#include <set>

#include "adversary/sut.h"
#include "algo/abd/system.h"
#include "algo/cas/system.h"
#include "algo/ldr/ldr.h"
#include "algo/strip/strip.h"
#include "common/check.h"
#include "engine/scheduler.h"

namespace memu::adversary {

namespace {

constexpr std::uint64_t kRunCap = 500000;

// ---- factories ---------------------------------------------------------------

MwSut from_abd(abd::System&& sys, std::size_t f, std::size_t value_size) {
  MwSut sut;
  sut.world = std::move(sys.world);
  sut.servers = std::move(sys.servers);
  sut.writers = std::move(sys.writers);
  sut.reader = sys.readers[0];
  sut.f = f;
  sut.value_size = value_size;
  sut.algorithm = "abd";
  sut.in_value_phase = [](const World& w, NodeId writer) {
    return dynamic_cast<const abd::Writer&>(w.process(writer)).phase() ==
           abd::Writer::Phase::kStore;
  };
  return sut;
}

MwSut from_cas(cas::System&& sys, std::size_t f, std::size_t value_size) {
  MwSut sut;
  sut.world = std::move(sys.world);
  sut.servers = std::move(sys.servers);
  sut.writers = std::move(sys.writers);
  sut.reader = sys.readers[0];
  sut.f = f;
  sut.value_size = value_size;
  sut.algorithm = "cas";
  sut.in_value_phase = [](const World& w, NodeId writer) {
    return dynamic_cast<const cas::Writer&>(w.process(writer)).phase() ==
           cas::Writer::Phase::kPreWrite;
  };
  return sut;
}

}  // namespace

MwSutFactory abd_mw_factory(std::size_t n, std::size_t f, std::size_t nu,
                            std::size_t value_size) {
  return [=] {
    abd::Options opt;
    opt.n_servers = n;
    opt.f = f;
    opt.n_writers = nu;
    opt.n_readers = 1;
    opt.value_size = value_size;
    return from_abd(abd::make_system(opt), f, value_size);
  };
}

MwSutFactory cas_mw_factory(std::size_t n, std::size_t f, std::size_t k,
                            std::size_t nu, std::size_t value_size) {
  return [=] {
    cas::Options opt;
    opt.n_servers = n;
    opt.f = f;
    opt.k = k;
    opt.n_writers = nu;
    opt.n_readers = 1;
    opt.value_size = value_size;
    return from_cas(cas::make_system(opt), f, value_size);
  };
}

MwSutFactory cas_hash_mw_factory(std::size_t n, std::size_t f, std::size_t k,
                                 std::size_t nu, std::size_t value_size) {
  return [=] {
    cas::Options opt;
    opt.n_servers = n;
    opt.f = f;
    opt.k = k;
    opt.n_writers = nu;
    opt.n_readers = 1;
    opt.value_size = value_size;
    opt.hash_phase = true;
    MwSut sut = from_cas(cas::make_system(opt), f, value_size);
    sut.algorithm = "cas-hash";
    sut.bulk_probes = true;
    return sut;
  };
}

MwSutFactory strip_mw_factory(std::size_t n, std::size_t f, std::size_t nu,
                              std::size_t value_size) {
  return [=] {
    strip::Options opt;
    opt.n_servers = n;
    opt.f = f;
    opt.n_writers = nu;
    opt.n_readers = 1;
    opt.value_size = value_size;
    strip::System sys = strip::make_system(opt);
    MwSut sut;
    sut.world = std::move(sys.world);
    sut.servers = std::move(sys.servers);
    sut.writers = std::move(sys.writers);
    sut.reader = sys.readers[0];
    sut.f = f;
    sut.value_size = value_size;
    sut.algorithm = "strip";
    sut.in_value_phase = [](const World& w, NodeId writer) {
      return dynamic_cast<const strip::Writer&>(w.process(writer)).phase() ==
             strip::Writer::Phase::kStore;
    };
    return sut;
  };
}

MwSutFactory ldr_mw_factory(std::size_t n, std::size_t f, std::size_t nu,
                            std::size_t value_size) {
  return [=] {
    ldr::Options opt;
    opt.n_servers = n;
    opt.f = f;
    opt.n_writers = nu;
    opt.n_readers = 1;
    opt.value_size = value_size;
    ldr::System sys = ldr::make_system(opt);
    MwSut sut;
    sut.world = std::move(sys.world);
    sut.servers = std::move(sys.servers);
    sut.writers = std::move(sys.writers);
    sut.reader = sys.readers[0];
    sut.f = f;
    sut.value_size = value_size;
    sut.algorithm = "ldr";
    sut.in_value_phase = [](const World& w, NodeId writer) {
      return dynamic_cast<const ldr::Writer&>(w.process(writer)).phase() ==
             ldr::Writer::Phase::kPut;
    };
    return sut;
  };
}

namespace {

// ---- staged-execution machinery -----------------------------------------------

struct Staging {
  MwSut sut;               // the world at P_0 (all writers parked, frozen)
  std::vector<NodeId> live_servers;  // the N - f + nu - 1 surviving servers
};

// Drives every writer to its value-dependent phase and freezes it there;
// crashes the last f + 1 - nu servers. Returns nullopt on failure.
std::optional<Staging> park(const MwSutFactory& factory,
                            const std::vector<Value>& values) {
  Staging st{factory(), {}};
  MwSut& sut = st.sut;
  const std::size_t nu = sut.writers.size();
  MEMU_CHECK_MSG(values.size() == nu, "one value per writer");
  MEMU_CHECK_MSG(nu >= 1 && nu <= sut.f + 1,
                 "Theorem 6.5 construction needs 1 <= nu <= f + 1");

  const std::size_t crash_count = sut.f + 1 - nu;
  MEMU_CHECK(sut.servers.size() > crash_count);
  for (std::size_t i = sut.servers.size() - crash_count;
       i < sut.servers.size(); ++i)
    sut.world.crash(sut.servers[i]);
  st.live_servers.assign(sut.servers.begin(),
                         sut.servers.end() - static_cast<std::ptrdiff_t>(
                                                 crash_count));

  Scheduler sched;
  for (std::size_t i = 0; i < nu; ++i) {
    sut.world.invoke(sut.writers[i], Invocation{OpType::kWrite, values[i]});
    const bool ok = sched.run_until(
        sut.world,
        [&](const World& w) { return sut.in_value_phase(w, sut.writers[i]); },
        kRunCap);
    if (!ok) return std::nullopt;
    sut.world.freeze(sut.writers[i]);
  }
  // Flush value-independent leftovers (acks of earlier phases, etc.).
  sched.drain(sut.world, kRunCap);
  return st;
}

// Delivers every pending message from writer w to server s (temporarily
// unfreezing the writer; manual delivery only, so nothing else moves).
void deliver_writer_to_server(World& w, NodeId writer, NodeId server) {
  w.unfreeze(writer);
  while (w.channel_depth({writer, server}) > 0) w.deliver({writer, server});
  w.freeze(writer);
}

// Builds the point P_|b|(sigma, b_1, ..., b_|b|) from P_0: stage j delivers
// the messages of every writer not in sigma(1..j-1) to servers
// (b_{j-1}, b_j] (1-based prefix ends; b_0 = 0).
World build_point(const Staging& st, const std::vector<std::size_t>& sigma,
                  const std::vector<std::size_t>& b) {
  World w = st.sut.world;  // COW fork of P_0; staged deliveries detach lazily
  std::size_t lo = 0;
  for (std::size_t j = 0; j < b.size(); ++j) {
    MEMU_CHECK(b[j] <= st.live_servers.size());
    for (std::size_t wi = 0; wi < st.sut.writers.size(); ++wi) {
      const bool excluded =
          std::find(sigma.begin(),
                    sigma.begin() + static_cast<std::ptrdiff_t>(
                                        std::min(j, sigma.size())),
                    wi) !=
          sigma.begin() + static_cast<std::ptrdiff_t>(std::min(j, sigma.size()));
      if (excluded) continue;
      for (std::size_t s = lo; s < b[j]; ++s)
        deliver_writer_to_server(w, st.sut.writers[wi], st.live_servers[s]);
    }
    lo = b[j];
  }
  return w;
}

// Directed valency probe: from `at`, freeze every writer except `candidate`
// (legal: delay all their traffic), value-block the candidate (it may send
// metadata but no value bits), run a solo read fairly. Returns the value.
std::optional<Value> directed_probe(const Staging& st, const World& at,
                                    std::size_t candidate) {
  World w = at;  // COW fork: the probe never disturbs the staged point
  for (std::size_t wi = 0; wi < st.sut.writers.size(); ++wi) {
    if (wi == candidate) {
      w.unfreeze(st.sut.writers[wi]);
      if (st.sut.bulk_probes)
        w.bulk_block(st.sut.writers[wi]);  // o(log|V|) hashes may flow
      else
        w.value_block(st.sut.writers[wi]);
    }
    // Others remain frozen from P_0 staging.
  }
  Scheduler sched;
  // Let the candidate run its metadata phases to completion first (e.g. a
  // CAS finalize through the value-block); the defining extension may place
  // the read after any amount of such progress.
  sched.drain(w, kRunCap);
  const std::size_t base = w.oplog().size();
  w.invoke(st.sut.reader, Invocation{OpType::kRead, {}});
  const bool done = sched.run_until(
      w,
      [base](const World& x) { return x.oplog().responses_since(base) >= 1; },
      kRunCap);
  if (!done) return std::nullopt;
  const OpLog& log = w.oplog();
  for (std::size_t i = base; i < log.size(); ++i) {
    if (log[i].kind == OpEvent::Kind::kResponse &&
        log[i].type == OpType::kRead)
      return log[i].value;
  }
  return std::nullopt;
}

}  // namespace

StagedExecution run_staged_execution(const MwSutFactory& factory,
                                     const std::vector<Value>& values) {
  StagedExecution out;
  const auto staged = park(factory, values);
  if (!staged.has_value()) return out;
  out.parked = true;

  const Staging& st = *staged;
  const std::size_t nu = st.sut.writers.size();
  const std::size_t live = st.live_servers.size();

  // Greedy Lemma 6.10 search. Analysis points use earlier prefixes reduced
  // by one (a_1 - 1, ..., a_{j-1} - 1, a): at those points the previously
  // used values are *just* not recoverable, isolating the new one. Per the
  // definition of the sets A_{i0+1}, the prefix ends are weakly increasing
  // (a_{i0} <= a_{i0+1}); the counting argument only needs them bounded by
  // N - f + nu - 1, not distinct.
  std::vector<Bytes> analysis_states;  // live states at each committed P_i
  for (std::size_t stage = 0; stage < nu; ++stage) {
    const std::size_t a_min = out.a.empty() ? 1 : out.a.back();
    bool found = false;
    for (std::size_t a = a_min; a <= live && !found; ++a) {
      for (std::size_t cand = 0; cand < nu && !found; ++cand) {
        if (std::find(out.sigma.begin(), out.sigma.end(), cand) !=
            out.sigma.end())
          continue;
        std::vector<std::size_t> b;
        for (const std::size_t prev : out.a) b.push_back(prev - 1);
        b.push_back(a);
        const World point = build_point(st, out.sigma, b);
        const auto got = directed_probe(st, point, cand);
        if (got.has_value() && *got == values[cand]) {
          out.a.push_back(a);
          out.sigma.push_back(cand);
          analysis_states.push_back(live_state_vector(point));
          found = true;
        }
      }
    }
    if (!found) return out;  // completed stays false
  }
  out.completed = true;

  const World final_point = build_point(st, out.sigma, out.a);
  out.final_state_encoding_bytes = final_point.canonical_encoding().size();
  const Bytes final_states = live_state_vector(final_point);

  BufWriter head;
  head.u64(nu);
  for (const std::size_t s : out.sigma) head.u64(s);
  for (const std::size_t a : out.a) head.u64(a);

  // Paper's map: (sigma, a, states at the final point P_nu) only.
  BufWriter single = head;
  single.bytes(final_states);
  out.single_point_signature = std::move(single).take();

  // Robust map: additionally the states at every analysis point, which pin
  // each stage's value even under overwriting storage.
  BufWriter multi = std::move(head);
  for (const Bytes& s : analysis_states) multi.bytes(s);
  multi.bytes(final_states);
  out.signature = std::move(multi).take();
  return out;
}

Theorem65Report verify_staged_injectivity(const MwSutFactory& factory,
                                          std::size_t domain,
                                          std::size_t nu) {
  MEMU_CHECK(domain >= nu && nu >= 1);
  Theorem65Report report;
  report.domain = domain;
  report.nu = nu;
  report.all_parked = true;
  report.all_completed = true;
  report.a_monotone = true;

  const std::size_t value_size = factory().value_size;

  // Enumerate ordered tuples of distinct value indices 1..domain.
  std::vector<std::size_t> idx(nu);
  std::set<Bytes> signatures;
  std::set<Bytes> single_point_signatures;
  std::size_t tuples = 0;

  std::function<void(std::size_t)> recurse = [&](std::size_t depth) {
    if (depth == nu) {
      ++tuples;
      std::vector<Value> values;
      for (const std::size_t i : idx)
        values.push_back(enum_value(i, value_size));
      const StagedExecution ex = run_staged_execution(factory, values);
      report.all_parked &= ex.parked;
      report.all_completed &= ex.completed;
      if (ex.completed) {
        for (std::size_t j = 1; j < ex.a.size(); ++j)
          report.a_monotone &= ex.a[j] >= ex.a[j - 1];
        signatures.insert(ex.signature);
        single_point_signatures.insert(ex.single_point_signature);
      }
      return;
    }
    for (std::size_t v = 1; v <= domain; ++v) {
      if (std::find(idx.begin(), idx.begin() + static_cast<std::ptrdiff_t>(depth),
                    v) != idx.begin() + static_cast<std::ptrdiff_t>(depth))
        continue;
      idx[depth] = v;
      recurse(depth + 1);
    }
  };
  recurse(0);

  report.tuples = tuples;
  report.distinct = signatures.size();
  report.injective = report.all_completed && signatures.size() == tuples;
  report.single_point_distinct = single_point_signatures.size();
  report.single_point_injective =
      report.all_completed && single_point_signatures.size() == tuples;
  report.bound_log2 = std::log2(static_cast<double>(tuples));
  {
    const MwSut probe = factory();
    report.live_servers = probe.servers.size() - (probe.f + 1 - nu);
  }
  return report;
}

}  // namespace memu::adversary

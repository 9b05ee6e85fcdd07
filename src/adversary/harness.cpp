#include "adversary/harness.h"

#include <cmath>
#include <map>
#include <set>

#include "common/check.h"
#include "engine/driver.h"
#include "engine/scheduler.h"

namespace memu::adversary {

namespace {

constexpr std::uint64_t kRunCap = 200000;

// Crash a chosen f-subset of servers (empty = the last f, the proofs'
// canonical choice). The theorems quantify over EVERY f-subset; callers can
// sweep them.
void crash_subset(Sut& sut, const std::vector<std::size_t>& crash_indices) {
  MEMU_CHECK(sut.servers.size() > sut.f);
  if (crash_indices.empty()) {
    for (std::size_t i = sut.servers.size() - sut.f; i < sut.servers.size();
         ++i)
      sut.world.crash(sut.servers[i]);
    return;
  }
  MEMU_CHECK_MSG(crash_indices.size() == sut.f,
                 "crash set must have exactly f elements");
  for (const std::size_t i : crash_indices) {
    MEMU_CHECK(i < sut.servers.size());
    sut.world.crash(sut.servers[i]);
  }
}

// Runs a complete write of `v` and quiesces all channels. The stepping and
// run loops come from the engine's common driver interface; the proofs'
// canonical fair schedule is the round-robin Scheduler.
bool write_and_quiesce(Sut& sut, const Value& v) {
  sut.world.invoke(sut.writer, Invocation{OpType::kWrite, v});
  Scheduler sched;
  engine::ExecutionDriver& driver = sched;
  if (!driver.run_until_responses(sut.world, 1, kRunCap)) return false;
  return driver.drain(sut.world, kRunCap);
}

// Per-live-server canonical states, keyed by node id.
std::map<std::uint32_t, Bytes> live_states(const World& w) {
  std::map<std::uint32_t, Bytes> out;
  for (const NodeId id : w.server_ids()) {
    if (w.is_crashed(id)) continue;
    out[id.value] = w.process(id).encode_state();
  }
  return out;
}

}  // namespace

SingletonReport verify_singleton_injectivity(
    const SutFactory& factory, std::size_t domain_size,
    const ProbeOptions& probe,
    const std::vector<std::size_t>& crash_indices) {
  MEMU_CHECK_MSG(domain_size >= 2, "need at least two values");
  SingletonReport report;
  report.domain = domain_size;
  report.bound_log2 = std::log2(static_cast<double>(domain_size));
  report.probes_consistent = true;

  std::set<Bytes> vectors;
  std::map<std::uint32_t, std::set<Bytes>> per_server;

  for (std::size_t i = 1; i <= domain_size; ++i) {
    Sut sut = factory();
    const Value v = enum_value(i, sut.value_size);
    crash_subset(sut, crash_indices);
    MEMU_CHECK_MSG(write_and_quiesce(sut, v),
                   "write did not terminate in alpha(v); algorithm not live "
                   "under f crashes?");
    vectors.insert(live_state_vector(sut.world));
    for (auto& [id, state] : live_states(sut.world))
      per_server[id].insert(state);

    const auto got = probe_read(sut.world, sut.writer, sut.reader, probe);
    if (!got.has_value() || *got != v) report.probes_consistent = false;
  }

  report.distinct_states = vectors.size();
  report.injective = vectors.size() == domain_size;
  for (const auto& [id, states] : per_server) {
    report.per_server_distinct.push_back(states.size());
    report.certificate_log2 += std::log2(static_cast<double>(states.size()));
  }
  return report;
}

// The certificates are sums of logarithms; the slack absorbs rounding when
// the inequality is tight (STRIP at |V| = 16 meets it with equality).
constexpr double kLog2Slack = 1e-9;

bool holds(const SingletonReport& r) {
  return r.injective && r.probes_consistent &&
         r.certificate_log2 + kLog2Slack >= r.bound_log2;
}

CriticalPointInfo find_critical_pair(
    const SutFactory& factory, const Value& v1, const Value& v2,
    const ProbeOptions& probe,
    const std::vector<std::size_t>& crash_indices) {
  MEMU_CHECK(v1 != v2);
  CriticalPointInfo info;

  Sut sut = factory();
  crash_subset(sut, crash_indices);
  if (!write_and_quiesce(sut, v1)) return info;  // found = false

  // Valency decision: deterministic single-schedule probe, or the exact
  // existential form over all extension schedules (Definition 4.3). An
  // exact decision keeps the point's value set, so the flip point's
  // 2-valency check reads it instead of searching the same point again.
  std::set<Value> exact_values;
  const auto one_valent = [&](const World& w) {
    if (probe.exact) {
      exact_values = probe_read_all_values(w, sut.writer, sut.reader, probe);
      return exact_values.contains(v1);
    }
    const auto val = probe_read(w, sut.writer, sut.reader, probe);
    return val.has_value() && *val == v1;
  };
  const auto two_valent = [&](const World& w) {
    if (probe.exact) return exact_values.contains(v2);
    const auto val = probe_read(w, sut.writer, sut.reader, probe);
    return val.has_value() && *val == v2;
  };

  // P0: after pi_1 terminates, before pi_2 is invoked. Must be 1-valent.
  if (!one_valent(sut.world)) return info;

  sut.world.invoke(sut.writer, Invocation{OpType::kWrite, v2});

  Scheduler sched;
  engine::ExecutionDriver& exec = sched;
  // COW snapshot of the current (1-valent) point: O(#processes) to take;
  // only the blocks the next step touches are ever materialized.
  World prev = sut.world;
  for (std::uint64_t steps = 0; steps < kRunCap; ++steps) {
    if (!exec.step(sut.world)) {
      // Quiesced without a valency flip: if the write terminated, the final
      // point cannot be 1-valent — the construction failed.
      return info;
    }
    if (one_valent(sut.world)) {
      prev = sut.world;
      continue;
    }

    // Flip located: prev is Q1 (1-valent), sut.world is Q2 (not 1-valent).
    info.found = true;
    info.flip_step = sut.world.step_count();
    info.steps_in_write2 = steps + 1;
    // Lemma 4.4: a not-1-valent point is 2-valent.
    info.probes_consistent = two_valent(sut.world);

    const auto before = live_states(prev);
    const auto after = live_states(sut.world);
    std::vector<std::uint32_t> changed;
    for (const auto& [id, state] : after) {
      const auto it = before.find(id);
      MEMU_CHECK(it != before.end());
      if (it->second != state) changed.push_back(id);
    }
    info.single_change = changed.size() == 1;
    // The proof's ~S(v1,v2): live states at Q1, the changed server's index,
    // and its state at Q2. If no server changed (cannot happen at a flip,
    // but be defensive) an arbitrary live server stands in.
    const std::uint32_t s =
        changed.empty() ? before.begin()->first : changed.front();
    BufWriter sig;
    sig.bytes(live_state_vector(prev));
    sig.u32(s);
    sig.bytes(after.at(s));
    info.signature = std::move(sig).take();
    info.changed_server = NodeId{s};
    info.q1_states = before;
    info.q2_changed_state = after.at(s);
    return info;
  }
  return info;
}

PairReport verify_pair_injectivity(
    const SutFactory& factory, std::size_t domain_size,
    const ProbeOptions& probe,
    const std::vector<std::size_t>& crash_indices) {
  MEMU_CHECK_MSG(domain_size >= 2, "need at least two values");
  PairReport report;
  report.domain = domain_size;
  report.pairs = domain_size * (domain_size - 1);
  report.bound_log2 = std::log2(static_cast<double>(report.pairs));
  report.all_found = true;
  report.all_consistent = true;
  report.all_single_change = true;

  // Probe the value size once.
  const std::size_t value_size = factory().value_size;

  std::set<Bytes> signatures;
  std::map<std::uint32_t, std::set<Bytes>> q1_per_server;
  std::set<std::pair<std::uint32_t, Bytes>> q2_pairs;
  for (std::size_t i = 1; i <= domain_size; ++i) {
    for (std::size_t j = 1; j <= domain_size; ++j) {
      if (i == j) continue;
      const Value v1 = enum_value(i, value_size);
      const Value v2 = enum_value(j, value_size);
      const CriticalPointInfo info =
          find_critical_pair(factory, v1, v2, probe, crash_indices);
      report.all_found &= info.found;
      report.all_consistent &= info.probes_consistent;
      report.all_single_change &= info.single_change;
      if (info.found) {
        signatures.insert(info.signature);
        for (const auto& [id, state] : info.q1_states)
          q1_per_server[id].insert(state);
        q2_pairs.insert({info.changed_server.value, info.q2_changed_state});
      }
    }
  }
  report.distinct_signatures = signatures.size();
  report.injective = report.all_found &&
                     signatures.size() == report.pairs;

  // Empirical counting certificate (the executable Theorem 4.1 inequality).
  report.q2_pair_distinct = q2_pairs.size();
  report.certificate_log2 =
      q2_pairs.empty() ? 0 : std::log2(static_cast<double>(q2_pairs.size()));
  for (const auto& [id, states] : q1_per_server) {
    report.per_server_q1_distinct.push_back(states.size());
    report.certificate_log2 += std::log2(static_cast<double>(states.size()));
  }
  return report;
}

bool holds(const PairReport& r) {
  return r.injective && r.all_found && r.all_consistent &&
         r.all_single_change &&
         r.certificate_log2 + kLog2Slack >= r.bound_log2;
}

}  // namespace memu::adversary

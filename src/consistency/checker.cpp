#include "consistency/checker.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <sstream>
#include <unordered_set>
#include <vector>

#include "common/check.h"

namespace memu {

namespace {

constexpr std::uint64_t kInfinity = std::numeric_limits<std::uint64_t>::max();

// Internal operation form used by the linearization search.
struct LOp {
  std::uint64_t invoke = 0;
  std::uint64_t response = kInfinity;  // kInfinity = pending
  bool is_write = false;
  int value_id = -1;   // written value (writes) / returned value (reads)
  bool required = true;  // must appear in the linearization
};

// Wing-Gong-style search: does a linearization of `ops` exist, starting from
// register value `initial_id`, that contains every `required` op, respects
// real-time precedence, and satisfies register semantics? Memoized on
// (linearized-set mask, current value id). Supports up to 64 ops. When
// `order_out` is non-null, the successful order (indices into `ops`) is
// recorded. When `deepest_out` is non-null, the linearized-set mask with
// the most ops reached anywhere in the (failed) search is recorded — the
// divergence localizer for counterexample reports.
bool linearizable(const std::vector<LOp>& ops, int initial_id,
                  std::vector<std::size_t>* order_out = nullptr,
                  std::uint64_t* deepest_out = nullptr) {
  const std::size_t n = ops.size();
  MEMU_CHECK_MSG(n <= 64, "linearizability search supports <= 64 operations");

  std::uint64_t required_mask = 0;
  for (std::size_t i = 0; i < n; ++i)
    if (ops[i].required) required_mask |= 1ull << i;

  // Memo of failed states: (mask, value) pairs from which no completion
  // exists.
  std::unordered_set<std::uint64_t> failed;
  const auto key = [n](std::uint64_t mask, int value) {
    return mask * (static_cast<std::uint64_t>(n) + 2) +
           static_cast<std::uint64_t>(value + 1);
  };

  std::uint64_t deepest = 0;
  std::function<bool(std::uint64_t, int)> go = [&](std::uint64_t mask,
                                                   int value) -> bool {
    if (std::popcount(mask & required_mask) >
        std::popcount(deepest & required_mask))
      deepest = mask;
    if ((mask & required_mask) == required_mask) return true;
    if (failed.contains(key(mask, value))) return false;

    // Earliest response among un-linearized ops: ops invoked after it cannot
    // be linearized yet.
    std::uint64_t barrier = kInfinity;
    for (std::size_t j = 0; j < n; ++j)
      if (!(mask & (1ull << j))) barrier = std::min(barrier, ops[j].response);

    for (std::size_t i = 0; i < n; ++i) {
      if (mask & (1ull << i)) continue;
      if (ops[i].invoke > barrier) continue;  // some other op precedes it
      const int next_value = ops[i].is_write ? ops[i].value_id : value;
      if (!ops[i].is_write && ops[i].value_id != value) continue;
      if (order_out) order_out->push_back(i);
      if (go(mask | (1ull << i), next_value)) return true;
      if (order_out) order_out->pop_back();
    }
    failed.insert(key(mask, value));
    return false;
  };
  const bool ok = go(0, initial_id);
  if (deepest_out) *deepest_out = deepest;
  return ok;
}

// Assigns dense ids to all distinct written values; the initial value gets
// id 0. Returns -1 for a value nobody wrote.
class ValueIds {
 public:
  explicit ValueIds(const Value& initial) { ids_[initial] = 0; }

  int intern(const Value& v) {
    const auto [it, inserted] =
        ids_.emplace(v, static_cast<int>(ids_.size()));
    return it->second;
  }

  int lookup(const Value& v) const {
    const auto it = ids_.find(v);
    return it == ids_.end() ? -1 : it->second;
  }

 private:
  std::map<Value, int> ids_;
};

std::string describe(const Operation& op) {
  std::ostringstream os;
  os << (op.type == OpType::kWrite ? "write" : "read") << "(op " << op.op_id
     << ", client " << op.client.value << ", [" << op.invoke_step << ", ";
  if (op.completed())
    os << *op.response_step;
  else
    os << "pending";
  os << "])";
  return os.str();
}

// Builds the LOp list for a full-history atomicity check. Returns false
// (with `error` and `error_op` set) when a read returned a never-written
// value.
bool build_register_ops(const History& h, const Value& initial,
                        std::vector<LOp>& ops,
                        std::vector<std::uint64_t>& op_ids,
                        std::string& error, std::uint64_t& error_op) {
  ValueIds ids(initial);
  // Intern every written value first: a read may legally return the value
  // of a write that was *invoked after* the read (they overlap).
  for (const auto& op : h.operations())
    if (op.type == OpType::kWrite) ids.intern(op.written);

  for (const auto& op : h.operations()) {
    if (op.type == OpType::kWrite) {
      LOp l;
      l.invoke = op.invoke_step;
      l.response = op.completed() ? *op.response_step : kInfinity;
      l.is_write = true;
      l.value_id = ids.lookup(op.written);
      l.required = op.completed();  // pending writes may or may not land
      ops.push_back(l);
      op_ids.push_back(op.op_id);
    } else if (op.completed()) {
      LOp l;
      l.invoke = op.invoke_step;
      l.response = *op.response_step;
      l.is_write = false;
      l.value_id = ids.lookup(op.returned);
      if (l.value_id < 0) {
        error = "read " + describe(op) + " returned a never-written value";
        error_op = op.op_id;
        return false;
      }
      l.required = true;
      ops.push_back(l);
      op_ids.push_back(op.op_id);
    }
  }
  return true;
}

}  // namespace

CheckResult check_atomic(const History& h, const Value& initial) {
  std::vector<LOp> ops;
  std::vector<std::uint64_t> op_ids;
  std::string error;
  std::uint64_t error_op = 0;
  if (!build_register_ops(h, initial, ops, op_ids, error, error_op))
    return CheckResult::fail_at(error, error_op);

  std::uint64_t deepest = 0;
  if (linearizable(ops, 0, nullptr, &deepest)) return CheckResult::pass();

  // Localize: among required ops the deepest frontier never linearized,
  // the earliest-invoked one is where the history first diverges.
  std::optional<std::size_t> diverged;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    if (!ops[i].required || (deepest & (1ull << i))) continue;
    if (!diverged || ops[i].invoke < ops[*diverged].invoke) diverged = i;
  }
  std::string why = "no linearization exists for the history (" +
                    std::to_string(ops.size()) + " operations)";
  if (diverged) {
    why += "; first divergence at op " + std::to_string(op_ids[*diverged]);
    return CheckResult::fail_at(std::move(why), op_ids[*diverged]);
  }
  return CheckResult::fail(std::move(why));
}

Linearization find_linearization(const History& h, const Value& initial) {
  Linearization out;
  std::vector<LOp> ops;
  std::vector<std::uint64_t> op_ids;
  std::string error;
  std::uint64_t error_op = 0;
  if (!build_register_ops(h, initial, ops, op_ids, error, error_op)) return out;

  std::vector<std::size_t> order;
  if (!linearizable(ops, 0, &order)) return out;
  out.exists = true;
  for (const std::size_t idx : order) out.order.push_back(op_ids[idx]);
  return out;
}

CheckResult check_regular_swsr(const History& h, const Value& initial) {
  // Single-writer sanity: all writes from one client, non-overlapping.
  const auto writes = h.writes();
  for (std::size_t i = 0; i < writes.size(); ++i) {
    if (writes[i]->client != writes[0]->client)
      return CheckResult::fail("not single-writer: writes from clients " +
                               std::to_string(writes[0]->client.value) +
                               " and " +
                               std::to_string(writes[i]->client.value));
  }

  for (const Operation* r : h.completed_reads()) {
    // Latest write completed before the read's invocation.
    const Operation* last = nullptr;
    for (const Operation* w : writes) {
      if (w->precedes(*r) &&
          (last == nullptr || *w->response_step > *last->response_step))
        last = w;
    }
    // Valid: last preceding write (or v0 if none), or any overlapping write.
    bool ok = last == nullptr ? r->returned == initial
                              : r->returned == last->written;
    if (!ok) {
      for (const Operation* w : writes) {
        const bool overlaps =
            w->invoke_step < r->response_step.value_or(kInfinity) &&
            (!w->completed() || *w->response_step > r->invoke_step);
        if (overlaps && w->written == r->returned) {
          ok = true;
          break;
        }
      }
    }
    if (!ok)
      return CheckResult::fail_at(
          "regularity violation: " + describe(*r) +
          " returned neither the latest preceding write nor an overlapping "
          "write",
          r->op_id);
  }
  return CheckResult::pass();
}

CheckResult check_weakly_regular(const History& h, const Value& initial) {
  ValueIds ids(initial);
  std::vector<LOp> writes;
  for (const auto& op : h.operations()) {
    if (op.type != OpType::kWrite) continue;
    LOp l;
    l.invoke = op.invoke_step;
    l.response = op.completed() ? *op.response_step : kInfinity;
    l.is_write = true;
    l.value_id = ids.intern(op.written);
    l.required = op.completed();
    writes.push_back(l);
  }

  // Each read independently: some serialization of the writes plus this
  // read must explain its return value.
  for (const Operation* r : h.completed_reads()) {
    std::vector<LOp> ops = writes;
    LOp l;
    l.invoke = r->invoke_step;
    l.response = *r->response_step;
    l.is_write = false;
    l.value_id = ids.lookup(r->returned);
    if (l.value_id < 0)
      return CheckResult::fail_at(
          "read " + describe(*r) + " returned a never-written value",
          r->op_id);
    l.required = true;
    ops.push_back(l);
    if (!linearizable(ops, 0))
      return CheckResult::fail_at(
          "weak regularity violation at " + describe(*r), r->op_id);
  }
  return CheckResult::pass();
}

CheckResult run_check(CheckKind kind, const History& h, const Value& initial) {
  switch (kind) {
    case CheckKind::kAtomic: return check_atomic(h, initial);
    case CheckKind::kRegularSwsr: return check_regular_swsr(h, initial);
    case CheckKind::kWeaklyRegular: return check_weakly_regular(h, initial);
  }
  MEMU_UNREACHABLE("unknown check kind");
}

std::string check_kind_name(CheckKind k) {
  switch (k) {
    case CheckKind::kAtomic: return "atomic";
    case CheckKind::kRegularSwsr: return "regular-swsr";
    case CheckKind::kWeaklyRegular: return "weakly-regular";
  }
  MEMU_UNREACHABLE("unknown check kind");
}

CheckKind check_kind_from_name(const std::string& name) {
  if (name == "atomic") return CheckKind::kAtomic;
  if (name == "regular-swsr") return CheckKind::kRegularSwsr;
  if (name == "weakly-regular") return CheckKind::kWeaklyRegular;
  MEMU_CHECK_MSG(false, "unknown check kind '" << name << "'");
}

}  // namespace memu

// Shared work-stealing task pool: the scheduler machinery behind the
// parallel frontier search AND the parallel fuzz campaigns, extracted so
// both drain their work through one implementation.
//
// Shape (unchanged from the frontier engine it was extracted from): each
// worker owns a deque and pops LIFO from its own back (depth-first
// locality — children run right after their parent), publishing new tasks
// in one batch under its own, normally uncontended, lock. Only when its
// deque runs dry does a worker touch shared state: it scans victims in a
// per-worker pseudorandom order and steals a BATCH from the front of the
// first non-empty deque — up to kMaxStealBatch tasks, at most half the
// victim's queue. For tree searches the front tasks are the shallowest,
// largest-subtree nodes, so one steal buys the longest private runway, and
// taking a batch amortizes the victim-lock round trip plus the cache-line
// handoff over K tasks instead of paying it per node (the thief re-queues
// the surplus on its OWN deque and stays off shared state until it runs
// dry again — which also keeps its World expansions allocating from its
// own slab pool pages, see common/arena.h). Termination is a single atomic
// in-flight counter: tasks are added to it BEFORE their producer retires,
// so it reaches 0 only when the pool is exhausted. No global queue, no
// condvar, no lock on the happy path except the owner's own deque mutex.
//
// Determinism contract: the pool guarantees every submitted task is
// visited exactly once by some worker; it does NOT fix which worker or in
// what order. Callers that need thread-count-independent results make the
// tasks independent and merge by task index (the fuzz campaign runner) or
// keep all shared counters atomic and order-insensitive (the frontier
// search).
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "common/hash.h"

namespace memu::engine {

// Worker count for CLI defaults: hardware_concurrency clamped to
// [1, cap]. Capped because walk-grained tasks stop scaling long before a
// big host runs out of cores, and CI runners report inflated counts.
std::size_t default_worker_count(std::size_t cap = 8);

template <class Task>
class WorkStealingPool {
 public:
  explicit WorkStealingPool(std::size_t threads) {
    if (threads == 0) threads = 1;
    deques_.reserve(threads);
    for (std::size_t i = 0; i < threads; ++i)
      deques_.push_back(std::make_unique<Deque>());
  }

  std::size_t workers() const { return deques_.size(); }

  // Queues a task before run(). Seeds round-robin across the deques so a
  // pre-known task list starts evenly partitioned; stealing rebalances
  // whatever the initial split gets wrong.
  void seed(Task&& task) {
    in_flight_.fetch_add(1);
    Deque& d = *deques_[seed_cursor_++ % deques_.size()];
    d.tasks.push_back(std::move(task));
  }

  // Publishes tasks from inside a visit callback, onto the calling
  // worker's own deque. Pushed in reverse order so the owner's LIFO pops
  // return them in `batch` order — the frontier's DFS-child ordering.
  // Increments in-flight by the batch size, so calling this before the
  // visit returns (i.e. before the parent retires) keeps the counter from
  // touching 0 mid-expansion. Drains `batch` (leaves it empty, capacity
  // intact) so callers can reuse the buffer.
  void submit(std::size_t worker, std::vector<Task>& batch) {
    if (batch.empty()) return;
    in_flight_.fetch_add(batch.size());
    Deque& d = *deques_[worker];
    std::lock_guard<std::mutex> lock(d.mu);
    for (auto it = batch.rbegin(); it != batch.rend(); ++it)
      d.tasks.push_back(std::move(*it));
    batch.clear();
  }

  // Cooperative abort: workers drain out without visiting further tasks.
  void stop() { stop_.store(true); }
  bool stopped() const { return stop_.load(); }

  // Steal telemetry: successful steal operations and the tasks they moved.
  // tasks_stolen / steal_batches is the realized steal-unit size — how much
  // runway each victim-lock round trip actually bought.
  std::uint64_t steal_batches() const {
    return steal_batches_.load(std::memory_order_relaxed);
  }
  std::uint64_t tasks_stolen() const {
    return tasks_stolen_.load(std::memory_order_relaxed);
  }

  // Runs `visit(worker_id, std::move(task))` for every task until the pool
  // is exhausted (in-flight reaches 0) or stop() is called. Blocks until
  // all workers have exited. With one worker no thread is spawned — the
  // loop runs inline, so the sequential path stays allocation- and
  // sync-free apart from the owner's uncontended mutex.
  //
  // A visit that throws ends the run: the pool keeps the first exception,
  // stops the other workers, joins them, and rethrows it here on the
  // calling thread (inline, it simply propagates). Tasks still queued are
  // dropped unvisited.
  template <class Visit>
  void run(Visit&& visit) {
    if (deques_.size() == 1) {
      worker_loop(0, visit);
      return;
    }
    std::exception_ptr error;
    std::mutex error_mu;
    std::vector<std::thread> workers;
    workers.reserve(deques_.size());
    for (std::size_t i = 0; i < deques_.size(); ++i)
      workers.emplace_back([this, &visit, &error, &error_mu, i] {
        try {
          worker_loop(i, visit);
        } catch (...) {
          std::lock_guard<std::mutex> lock(error_mu);
          if (error == nullptr) error = std::current_exception();
          stop();
        }
      });
    for (auto& w : workers) w.join();
    if (error != nullptr) std::rethrow_exception(error);
  }

 private:
  struct Deque {
    std::mutex mu;
    std::vector<Task> tasks;  // back = owner end, front = steal end
  };

  bool try_pop_local(std::size_t id, Task& out) {
    Deque& d = *deques_[id];
    std::lock_guard<std::mutex> lock(d.mu);
    if (d.tasks.empty()) return false;
    out = std::move(d.tasks.back());
    d.tasks.pop_back();
    return true;
  }

  // Steal units: how many front tasks one successful steal takes. Half the
  // victim's queue rebalances decisively; the cap bounds how much work a
  // thief hoards where a third starving worker cannot see it.
  static constexpr std::size_t kMaxStealBatch = 8;

  bool try_steal(std::size_t id, std::uint64_t& rng, Task& out) {
    const std::size_t n = deques_.size();
    rng = mix64(rng + 0x9e3779b97f4a7c15ull);
    const std::size_t start = rng % n;
    for (std::size_t k = 0; k < n; ++k) {
      const std::size_t victim = (start + k) % n;
      if (victim == id) continue;
      Deque& d = *deques_[victim];
      std::vector<Task> grabbed;
      {
        std::lock_guard<std::mutex> lock(d.mu);
        if (d.tasks.empty()) continue;
        const std::size_t take =
            std::min(kMaxStealBatch, (d.tasks.size() + 1) / 2);
        grabbed.reserve(take);
        for (std::size_t i = 0; i < take; ++i)
          grabbed.push_back(std::move(d.tasks[i]));
        d.tasks.erase(d.tasks.begin(),
                      d.tasks.begin() + static_cast<std::ptrdiff_t>(take));
      }
      steal_batches_.fetch_add(1, std::memory_order_relaxed);
      tasks_stolen_.fetch_add(grabbed.size(), std::memory_order_relaxed);
      out = std::move(grabbed.front());
      if (grabbed.size() > 1) {
        // Surplus goes to the thief's own deque, pushed so its LIFO pops
        // run the stolen tasks front-to-back (shallowest first).
        Deque& mine = *deques_[id];
        std::lock_guard<std::mutex> lock(mine.mu);
        for (std::size_t i = grabbed.size(); i-- > 1;)
          mine.tasks.push_back(std::move(grabbed[i]));
      }
      return true;
    }
    return false;
  }

  template <class Visit>
  void worker_loop(std::size_t id, Visit& visit) {
    std::uint64_t rng = mix64(id ^ 0xd6e8feb86659fd93ull);
    std::size_t idle = 0;
    for (;;) {
      if (stop_.load()) return;
      Task task;
      if (!try_pop_local(id, task) && !try_steal(id, rng, task)) {
        if (in_flight_.load() == 0) return;  // nothing queued, nothing running
        // Brief spin, then sleep: on saturated hardware (or 1 core) idle
        // thieves must yield the CPU to whoever holds the work.
        if (++idle < 16) {
          std::this_thread::yield();
        } else {
          std::this_thread::sleep_for(std::chrono::microseconds(100));
        }
        continue;
      }
      idle = 0;
      visit(id, std::move(task));
      in_flight_.fetch_sub(1);
    }
  }

  std::vector<std::unique_ptr<Deque>> deques_;
  std::size_t seed_cursor_ = 0;
  std::atomic<std::size_t> in_flight_{0};  // queued + executing tasks
  std::atomic<bool> stop_{false};
  std::atomic<std::uint64_t> steal_batches_{0};
  std::atomic<std::uint64_t> tasks_stolen_{0};
};

// Runs body(i) for every i in [0, n) across `threads` pool workers.
// threads <= 1 (or n <= 1) runs inline, in index order, with no thread
// machinery at all. The iterations must be independent; a caller that
// stores result i into slot i of a pre-sized vector gets thread-count-
// independent output for free.
template <class Body>
void parallel_for(std::size_t threads, std::size_t n, Body&& body) {
  if (threads <= 1 || n <= 1) {
    for (std::size_t i = 0; i < n; ++i) body(i);
    return;
  }
  WorkStealingPool<std::size_t> pool(std::min(threads, n));
  for (std::size_t i = 0; i < n; ++i) pool.seed(std::size_t{i});
  pool.run([&body](std::size_t, std::size_t&& i) { body(i); });
}

}  // namespace memu::engine

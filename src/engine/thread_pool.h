// parallel_for: independent indexed tasks over a few threads — the fuzz
// campaign's walks, the minimizer's probes and the sweep's keys and
// windows.
//
// Workers claim indices from one atomic counter, in increasing order; the
// calling thread is one of them. Nothing fixes which worker runs which
// index, so callers that need thread-count-independent results write
// result i into slot i of a pre-sized vector and merge in index order.
// Exhaustive search (engine/frontier.h) runs on one thread and does not
// use this.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace memu::engine {

// Worker count for CLI defaults: hardware_concurrency clamped to
// [1, cap]. Capped because walk-grained tasks stop scaling long before a
// big host runs out of cores, and CI runners report inflated counts.
std::size_t default_worker_count(std::size_t cap = 8);

// Runs body(i) for every i in [0, n) on min(threads, n) workers, the
// calling thread included. threads <= 1 (or n <= 1) runs inline, in index
// order, with no thread machinery at all. A body that throws stops the
// workers from claiming further indices; once every worker has joined,
// the first exception is rethrown here.
template <class Body>
void parallel_for(std::size_t threads, std::size_t n, Body&& body) {
  if (threads <= 1 || n <= 1) {
    for (std::size_t i = 0; i < n; ++i) body(i);
    return;
  }
  std::atomic<std::size_t> next{0};
  std::exception_ptr error;
  std::mutex error_mu;
  const auto work = [&] {
    try {
      for (std::size_t i; (i = next.fetch_add(1)) < n;) body(i);
    } catch (...) {
      next.store(n);
      std::lock_guard<std::mutex> lock(error_mu);
      if (error == nullptr) error = std::current_exception();
    }
  };
  const std::size_t workers = std::min(threads, n);
  std::vector<std::thread> spawned;
  spawned.reserve(workers - 1);
  for (std::size_t t = 1; t < workers; ++t) spawned.emplace_back(work);
  work();
  for (std::thread& w : spawned) w.join();
  if (error != nullptr) std::rethrow_exception(error);
}

}  // namespace memu::engine

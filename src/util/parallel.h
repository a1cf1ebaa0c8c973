// parallel.h — the index-space thread pool behind
// SynthesisPipeline::run_many, and the worker-count rule it shares with
// CompileServer's worker pool.
//
// One copy of the subtle parts (hardware-concurrency fallback, atomic
// work queue, per-index exception capture, join-before-return).
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <exception>
#include <thread>
#include <vector>

namespace dmfb::detail {

/// Worker count implied by a `threads` option: 0 = hardware concurrency,
/// otherwise the requested count, never more than `count` items.
inline std::size_t resolve_worker_count(std::size_t count, int threads) {
  const unsigned hardware = std::max(1u, std::thread::hardware_concurrency());
  return std::min(count, static_cast<std::size_t>(
                             threads > 0 ? static_cast<unsigned>(threads)
                                         : hardware));
}

/// Invokes fn(index) for every index in [0, count) across
/// `resolve_worker_count(count, threads)` workers (a single worker runs
/// inline in the calling thread). Returns one exception_ptr per index
/// (null = completed normally); nothing is rethrown here, so the caller
/// decides how errors surface (run_many folds them into per-item ok/error
/// status).
template <typename Fn>
std::vector<std::exception_ptr> for_each_index(std::size_t count, int threads,
                                               Fn&& fn) {
  std::vector<std::exception_ptr> errors(count);
  if (count == 0) return errors;

  const std::size_t worker_count = resolve_worker_count(count, threads);
  std::atomic<std::size_t> next{0};
  const auto worker = [&] {
    for (;;) {
      const std::size_t index = next.fetch_add(1);
      if (index >= count) return;
      try {
        fn(index);
      } catch (...) {
        errors[index] = std::current_exception();
      }
    }
  };

  if (worker_count <= 1) {
    worker();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(worker_count);
    for (std::size_t i = 0; i < worker_count; ++i) pool.emplace_back(worker);
    for (auto& thread : pool) thread.join();
  }
  return errors;
}

}  // namespace dmfb::detail

// Persistent worker pool behind parallel_for / parallel_map.
//
// One pool per thread count, created on first use and kept for the life of
// the process. A job is one shared cursor over [0, n): the submitter appends
// it to a FIFO under the pool mutex, wakes at most min(n, threads) workers
// and blocks; workers claim indices one at a time until the cursor passes n.
// The library's call sites (replications, the sweep, the policy panel) are
// flat maps over independent indices, so a central queue balances them.
//
// The submitter never runs indices itself, so the thread_local scratch the
// library keeps (the QBD solver's) stays warm on long-lived workers.
// Idle workers sleep on a condition variable: an idle pool costs nothing.
//
// Every index is attempted; the first exception thrown by the body is
// rethrown to the caller once the whole range has run (per-index isolation:
// one bad index does not stop the others). Results written to out[i] by
// index are therefore bit-identical for any thread count.
//
// Nested calls from inside a body are not supported: once every worker
// blocks in an inner call, no worker is left to run the inner jobs.
#pragma once

#include <cstddef>
#include <functional>
#include <type_traits>
#include <vector>

namespace csq::par {

// Number of hardware threads (>= 1).
[[nodiscard]] int hardware_threads();

// Resolve a user-facing thread-count option: 0 means "all hardware threads",
// anything else is clamped to >= 1.
[[nodiscard]] int resolve_threads(int threads);

// Run fn(i) for i in [0, n). threads <= 1 (after resolve_threads) or n <= 1
// runs inline on the calling thread, the deterministic baseline; otherwise
// the shared pool of that many workers runs the indices. Both paths attempt
// every index and then rethrow the first exception fn threw, so error
// semantics and by-index results do not depend on the thread count.
void parallel_for(std::size_t n, int threads, const std::function<void(std::size_t)>& fn);

// out[i] = f(i) for i in [0, n); the result vector is ordered by index
// whatever the execution order. R must be default-constructible.
template <typename F>
[[nodiscard]] auto parallel_map(std::size_t n, int threads, F&& f) {
  using R = std::decay_t<decltype(f(std::size_t{0}))>;
  std::vector<R> out(n);
  parallel_for(n, threads, [&](std::size_t i) { out[i] = f(i); });
  return out;
}

}  // namespace csq::par

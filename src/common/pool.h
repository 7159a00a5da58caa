// Shared work-stealing worker pool (DESIGN.md §15) — the process's one
// thread pool: collection (taccstats::run_all_agents), ingest chunks, the
// query engine and the archive codec all run on it.
//
// The workers are process-wide and long-lived because spawning threads per
// call costs more than encoding a small archive partition (bench_archive
// measured a sub-1× "speedup" at 8 threads that way). Jobs are described as
// an index range pre-split into per-participant shards of contiguous batches,
// claims taken with a single fetch_add, and idle participants stealing whole
// batches from other shards. The caller always participates, so a job
// completes even when every worker is busy (including the nested case where
// a job is submitted from inside another job's unit function), and
// `threads == 1` runs inline with zero pool traffic.
//
// Determinism rule (DESIGN.md §7): unit functions write only to their own
// per-unit output slots. The pool guarantees each unit runs exactly once and
// that all writes are visible to the caller when run() returns; it makes no
// ordering promise beyond that.
#pragma once

#include <cstddef>
#include <functional>

namespace supremm::common {

class WorkerPool {
 public:
  /// `workers` may be 0 (every run() executes entirely on the caller).
  explicit WorkerPool(std::size_t workers);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  [[nodiscard]] std::size_t workers() const noexcept;

  /// Run fn(i) for every i in [0, n) and wait. `threads` caps participants
  /// (callers + helping workers): 1 runs inline on the caller, 0 means
  /// hardware concurrency. `grain` is the batch size in units — indices are
  /// claimed `grain` at a time so tiny units amortize claim traffic; 0
  /// selects a size targeting several batches per participant. The first
  /// exception thrown by a unit stops further claims and is rethrown here.
  void run(std::size_t n, std::size_t threads, std::size_t grain,
           const std::function<void(std::size_t)>& fn);

  /// Process-wide pool: hardware_concurrency - 1 workers (the caller is the
  /// remaining participant), created on first use.
  [[nodiscard]] static WorkerPool& shared();

 private:
  struct Impl;
  Impl* impl_;
};

/// shared().run(...) — the call sites' one-liner.
inline void pool_run(std::size_t n, std::size_t threads, std::size_t grain,
                     const std::function<void(std::size_t)>& fn) {
  WorkerPool::shared().run(n, threads, grain, fn);
}

}  // namespace supremm::common

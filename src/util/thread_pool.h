// A persistent, deterministic-partition thread pool for the engines'
// data-parallel loops.
//
// Design goals, in order:
//  1. Determinism. parallel_for(count, fn) runs fn(i) exactly once for each
//     i in [0, count); worker w owns the fixed stride {i : i % width == w}.
//     There is no work stealing and no dynamic chunking, so the
//     thread-to-index assignment — and any per-thread side effect pattern —
//     is identical from run to run. Callers that write only to slot i from
//     fn(i) get bit-identical results at every width, including width 1.
//  2. Reuse. Workers are spawned once and parked on a condition variable
//     between jobs. The stage engine previously paid a spawn+join per stage
//     (~2n stages on a ring); a pool turns that into one wake per stage.
//  3. Simplicity. One job at a time, submitted and awaited by one owner
//     thread. The owner participates as worker 0, so `threads` is the total
//     parallel width, not the number of helpers.
//
// fn must not throw (engine kernels abort via FPSS_ASSERT on violation) and
// must not call back into the pool that is running it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

#include "util/mutex.h"

namespace fpss::util {

class ThreadPool {
 public:
  /// A pool of total width max(1, threads): threads - 1 parked workers plus
  /// the calling thread. Width 1 spawns nothing and runs jobs inline.
  explicit ThreadPool(unsigned threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total parallel width (helper workers + the submitting thread).
  unsigned width() const { return static_cast<unsigned>(workers_.size()) + 1; }

  /// Runs fn(i) for every i in [0, count), partitioned by the fixed stride
  /// above, and blocks until every index has run. Must be called by one
  /// thread at a time (the pool's owner).
  void parallel_for(std::size_t count,
                    const std::function<void(std::size_t)>& fn);

  /// Splits [0, count) into one contiguous stripe per worker and runs
  /// fn(first, last) on each, stripe w on worker w; with no pool, one
  /// stripe covers everything. For walks that keep per-index state across
  /// a long outer loop: each index is visited by one stripe only.
  static void stripes(ThreadPool* pool, std::size_t count,
                      const std::function<void(std::size_t, std::size_t)>& fn);

  /// std::thread::hardware_concurrency with a floor of 1.
  static unsigned hardware_threads();

 private:
  void worker_loop(unsigned worker);
  /// Runs worker `worker`'s stride of job (fn, count). The job is passed by
  /// value-of-pointer, copied out under mutex_ by the caller, so the run
  /// itself touches no guarded state (the epoch handshake provides the
  /// happens-before edge; the analysis sees only unshared parameters).
  void run_stride(unsigned worker, const std::function<void(std::size_t)>& fn,
                  std::size_t count) const;

  std::vector<std::thread> workers_;

  Mutex mutex_;
  CondVar work_cv_;  ///< owner -> workers: new job / stop
  CondVar done_cv_;  ///< workers -> owner: job finished
  const std::function<void(std::size_t)>* fn_ FPSS_GUARDED_BY(mutex_) =
      nullptr;
  std::size_t count_ FPSS_GUARDED_BY(mutex_) = 0;
  /// Bumped per job so workers run each job once.
  std::uint64_t epoch_ FPSS_GUARDED_BY(mutex_) = 0;
  /// Helpers that have not finished the job.
  unsigned outstanding_ FPSS_GUARDED_BY(mutex_) = 0;
  bool stop_ FPSS_GUARDED_BY(mutex_) = false;
};

}  // namespace fpss::util

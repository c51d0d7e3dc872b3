#include "util/thread_pool.h"

#include <algorithm>

#include "util/contract.h"

namespace fpss::util {

ThreadPool::ThreadPool(unsigned threads) {
  const unsigned helpers = std::max(1u, threads) - 1;
  workers_.reserve(helpers);
  for (unsigned w = 0; w < helpers; ++w)
    workers_.emplace_back([this, w] { worker_loop(w + 1); });
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mutex_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

unsigned ThreadPool::hardware_threads() {
  return std::max(1u, std::thread::hardware_concurrency());
}

void ThreadPool::stripes(
    ThreadPool* pool, std::size_t count,
    const std::function<void(std::size_t, std::size_t)>& fn) {
  const std::size_t width =
      pool == nullptr ? 1 : std::min<std::size_t>(pool->width(), count);
  if (width <= 1) {
    if (count > 0) fn(0, count);
    return;
  }
  pool->parallel_for(width, [&](std::size_t w) {
    fn(w * count / width, (w + 1) * count / width);
  });
}

void ThreadPool::run_stride(unsigned worker,
                            const std::function<void(std::size_t)>& fn,
                            std::size_t count) const {
  for (std::size_t i = worker; i < count; i += width()) fn(i);
}

void ThreadPool::worker_loop(unsigned worker) {
  std::uint64_t seen = 0;
  for (;;) {
    const std::function<void(std::size_t)>* fn = nullptr;
    std::size_t count = 0;
    {
      MutexLock lock(mutex_);
      while (!stop_ && epoch_ == seen) work_cv_.wait(lock);
      if (stop_) return;
      seen = epoch_;
      fn = fn_;
      count = count_;
    }
    run_stride(worker, *fn, count);
    {
      MutexLock lock(mutex_);
      if (--outstanding_ == 0) done_cv_.notify_one();
    }
  }
}

void ThreadPool::parallel_for(std::size_t count,
                              const std::function<void(std::size_t)>& fn) {
  if (count == 0) return;
  if (workers_.empty() || count == 1) {
    for (std::size_t i = 0; i < count; ++i) fn(i);
    return;
  }
  {
    MutexLock lock(mutex_);
    FPSS_ASSERT(outstanding_ == 0);  // one job at a time
    fn_ = &fn;
    count_ = count;
    outstanding_ = static_cast<unsigned>(workers_.size());
    ++epoch_;
  }
  work_cv_.notify_all();
  run_stride(0, fn, count);  // the owner is worker 0
  MutexLock lock(mutex_);
  while (outstanding_ != 0) done_cv_.wait(lock);
  fn_ = nullptr;
  count_ = 0;
}

}  // namespace fpss::util

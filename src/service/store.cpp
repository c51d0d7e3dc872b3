#include "service/store.h"

#include <chrono>
#include <utility>

#include "util/contract.h"

namespace fpss::service {

namespace {

std::uint64_t version_of(const std::shared_ptr<const RouteSnapshot>& snap) {
  return snap == nullptr ? 0 : snap->version();
}

}  // namespace

std::size_t ShardedSnapshotStore::publish(
    std::shared_ptr<const RouteSnapshot> snapshot, std::size_t shard_count) {
  FPSS_EXPECTS(snapshot != nullptr);
  const std::size_t n = snapshot->node_count();
  const std::size_t shards =
      std::clamp<std::size_t>(shard_count, 1, std::max<std::size_t>(n, 1));
  const std::uint64_t version = snapshot->version();
  // The diff runs outside the lock: the store's one publisher is the only
  // writer of newest_ and the layout, so `prev` is still current at the
  // swap (asserted there). `prev` also keeps the displaced snapshot alive
  // until after the lock is released, so its reclamation stays off the
  // critical section.
  std::shared_ptr<const RouteSnapshot> prev;
  bool rebase = false;
  {
    util::MutexLock lock(mutex_);
    prev = newest_;
    rebase = prev == nullptr || shard_versions_.size() != shards ||
             prev->node_count() != n || prev->version() > version;
  }
  std::vector<bool> moved(shards, rebase);
  if (!rebase) {
    const std::size_t size = shard_size_of(n, shards);
    for (NodeId j = 0; j < n; ++j)
      if (!snapshot->shares_block_with(*prev, j)) moved[j / size] = true;
  }
  std::size_t stamped = 0;
  {
    util::MutexLock lock(mutex_);
    FPSS_ASSERT(newest_ == prev);
    shard_versions_.resize(shards);
    for (std::size_t s = 0; s < shards; ++s) {
      if (!moved[s]) continue;
      shard_versions_[s] = version;
      ++stamped;
    }
    newest_ = std::move(snapshot);
  }
  published_cv_.notify_all();
  return stamped;
}

std::uint64_t ShardedSnapshotStore::wait_for_version_beyond(
    std::uint64_t count, int timeout_ms) const {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  util::MutexLock lock(mutex_);
  while (version_of(newest_) <= count)
    if (published_cv_.wait_until(lock, deadline) == std::cv_status::timeout)
      break;
  return version_of(newest_);
}

ShardedSnapshotStore::ExportCut ShardedSnapshotStore::export_cut() const {
  util::MutexLock lock(mutex_);
  return ExportCut{newest_, shard_versions_};
}

}  // namespace fpss::service

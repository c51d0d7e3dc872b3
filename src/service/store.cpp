#include "service/store.h"

#include <algorithm>
#include <utility>

#include "util/contract.h"

namespace fpss::service {

namespace {

std::size_t clamp_shards(std::size_t node_count, std::size_t shard_count) {
  const std::size_t n = node_count == 0 ? 1 : node_count;
  if (shard_count == 0) return 1;
  return shard_count < n ? shard_count : n;
}

}  // namespace

ShardedSnapshotStore::ShardedSnapshotStore(std::size_t node_count,
                                           std::size_t shard_count)
    : shard_count_(clamp_shards(node_count, shard_count)),
      shard_size_((std::max<std::size_t>(node_count, 1) + shard_count_ - 1) /
                  shard_count_),
      shards_(shard_count_) {}

ShardedSnapshotStore::View ShardedSnapshotStore::acquire() const {
  View view;
  view.shard_size = shard_size_;
  util::MutexLock lock(mutex_);
  view.newest = newest_;
  view.shards = shards_;
  return view;
}

std::size_t ShardedSnapshotStore::publish(
    std::shared_ptr<const RouteSnapshot> snapshot,
    const std::vector<bool>& shard_dirty) {
  FPSS_EXPECTS(snapshot != nullptr);
  FPSS_EXPECTS(shard_dirty.size() == shard_count_);
  const std::uint64_t version = snapshot->version();
  std::size_t swapped = 0;
  // Displaced pointers die outside the lock (refcount reclamation can run
  // a snapshot destructor; keep that off the critical section).
  std::vector<std::shared_ptr<const RouteSnapshot>> displaced;
  displaced.reserve(shard_count_ + 1);
  {
    util::MutexLock lock(mutex_);
    FPSS_ASSERT(newest_ == nullptr || newest_->version() <= version);
    for (std::size_t s = 0; s < shard_count_; ++s) {
      if (!shard_dirty[s] && shards_[s] != nullptr) continue;
      displaced.push_back(std::exchange(shards_[s], snapshot));
      ++swapped;
    }
    displaced.push_back(std::exchange(newest_, std::move(snapshot)));
    ++publishes_;
  }
  return swapped;
}

std::size_t ShardedSnapshotStore::publish_all(
    std::shared_ptr<const RouteSnapshot> snapshot) {
  return publish(std::move(snapshot),
                 std::vector<bool>(shard_count_, true));
}

ShardedSnapshotStore::ExportCut ShardedSnapshotStore::export_cut() const {
  ExportCut cut;
  cut.shard_versions.assign(shard_count_, 0);
  cut.shard_size = shard_size_;
  util::MutexLock lock(mutex_);
  cut.newest = newest_;
  for (std::size_t s = 0; s < shard_count_; ++s)
    if (shards_[s] != nullptr) cut.shard_versions[s] = shards_[s]->version();
  return cut;
}

}  // namespace fpss::service

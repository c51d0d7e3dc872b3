#include "service/store.h"

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
    : node_count_(node_count),
      shard_count_(clamp_shards(node_count, shard_count)),
      shard_size_(shard_size_of(node_count, shard_count_)),
      shard_versions_(shard_count_, 0) {}

std::size_t ShardedSnapshotStore::publish(
    std::shared_ptr<const RouteSnapshot> snapshot) {
  FPSS_EXPECTS(snapshot != nullptr);
  FPSS_EXPECTS(snapshot->node_count() == node_count_);
  // The diff runs outside the lock: the store's one publisher is the only
  // writer of newest_, so `prev` is still current at the swap (asserted
  // there). `prev` also keeps the displaced snapshot alive until after the
  // lock is released, so its reclamation stays off the critical section.
  const std::shared_ptr<const RouteSnapshot> prev = newest();
  std::vector<bool> moved(shard_count_, prev == nullptr);
  if (prev != nullptr)
    for (NodeId j = 0; j < node_count_; ++j)
      if (!snapshot->shares_block_with(*prev, j)) moved[shard_of(j)] = true;
  const std::uint64_t version = snapshot->version();
  std::size_t stamped = 0;
  util::MutexLock lock(mutex_);
  FPSS_ASSERT(newest_ == prev);
  FPSS_ASSERT(prev == nullptr || prev->version() <= version);
  for (std::size_t s = 0; s < shard_count_; ++s) {
    if (!moved[s]) continue;
    shard_versions_[s] = version;
    ++stamped;
  }
  newest_ = std::move(snapshot);
  return stamped;
}

ShardedSnapshotStore::ExportCut ShardedSnapshotStore::export_cut() const {
  ExportCut cut;
  cut.shard_versions.resize(shard_count_);  // the copy below reuses it
  util::MutexLock lock(mutex_);
  cut.newest = newest_;
  cut.shard_versions = shard_versions_;
  return cut;
}

}  // namespace fpss::service

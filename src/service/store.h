// The publication point between the one updater (who re-converges the
// network and builds fresh RouteSnapshots) and any number of reader
// threads serving queries.
//
// RCU/epoch style: a snapshot is immutable once built, so publication is a
// single pointer swap and a read is a single pointer copy — readers never
// block on the updater's (long) reconvergence work, and a reader holding
// version v keeps serving v consistently while v+1 is being computed and
// after it lands. Old snapshots are reclaimed by shared_ptr refcount as
// the last reader drops them; there is no quiescent-state bookkeeping to
// get wrong.
//
// The swap/copy is guarded by a mutex whose critical section is two
// refcount operations — deliberately NOT std::atomic<shared_ptr>: in
// libstdc++ (GCC 12) _Sp_atomic::load() reads the raw pointer field and
// then releases its internal spin lock with memory_order_relaxed, so the
// read has no formal happens-before edge against a concurrent exchange()'s
// plain write of that field. TSan correctly reports the race, and the
// whole point of this store is to be provably torn-read-free under TSan
// (see test_service.cpp / the CI tsan job). The mutex never serializes
// readers against reconvergence — only against the nanoseconds-long
// pointer swap itself; everything after acquire() is lock-free.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "service/snapshot.h"
#include "util/mutex.h"
#include "util/types.h"

namespace fpss::service {

/// The shard partition every store and every replication stream share:
/// contiguous ranges of ceil(n / shard_count) destinations, so shard s
/// holds [s * size, min(n, (s + 1) * size)). Precondition: shard_count >= 1.
inline std::size_t shard_size_of(std::size_t node_count,
                                 std::size_t shard_count) {
  return (std::max<std::size_t>(node_count, 1) + shard_count - 1) /
         shard_count;
}

/// The k-shard publication point: one snapshot (`newest`) plus one version
/// per shard of destinations (shard_of(j) = j / shard_size()). A shard's
/// version is the version of the publish that last *changed* one of its
/// destinations, which is what a replica's fetch negotiates on: a catch-up
/// transfers only the shards whose version moved.
///
/// publish() finds the moved shards itself, by block identity: a
/// destination moved iff its block is not the same object as in the
/// previous `newest`. That is exact because blocks are immutable (the same
/// object is the same content, changed content is always a new object) and
/// every producer shares unchanged rows by pointer: an incremental export
/// aliases every clean row, warm-start adoption and the replica's
/// Assembler swap in the resident block wherever digests match, and a full
/// export makes a new block per row, so every shard moves.
///
/// Readers get `newest` and nothing else: every reply is answered from the
/// snapshot whose version it carries.
class ShardedSnapshotStore {
 public:
  /// Partitions `node_count` destinations into `shard_count` contiguous
  /// shards. shard_count is clamped to [1, max(1, node_count)]; with one
  /// shard every publish that changes anything stamps the one version.
  ShardedSnapshotStore(std::size_t node_count, std::size_t shard_count);

  std::size_t shard_count() const { return shard_count_; }
  std::size_t shard_size() const { return shard_size_; }
  std::size_t shard_of(NodeId j) const { return j / shard_size_; }

  /// The served snapshot, alive as long as the caller holds it.
  struct View {
    std::shared_ptr<const RouteSnapshot> newest;

    bool empty() const { return newest == nullptr; }
  };

  View acquire() const FPSS_EXCLUDES(mutex_) { return View{newest()}; }

  /// The newest published snapshot (null until the first publish).
  std::shared_ptr<const RouteSnapshot> newest() const FPSS_EXCLUDES(mutex_) {
    util::MutexLock lock(mutex_);
    return newest_;
  }

  /// Publishes `snapshot` as `newest` and stamps its version onto every
  /// shard holding a destination whose block differs from the previous
  /// newest's (every shard on the first publish). Returns the number of
  /// shards stamped. Preconditions: snapshot non-null with this store's
  /// node count, version non-decreasing, and one publisher per store.
  std::size_t publish(std::shared_ptr<const RouteSnapshot> snapshot)
      FPSS_EXCLUDES(mutex_);

  std::uint64_t publish_count() const FPSS_EXCLUDES(mutex_) {
    util::MutexLock lock(mutex_);
    return publishes_;
  }

  /// The newest snapshot's version; 0 before the first publish.
  std::uint64_t version() const {
    const auto snap = newest();
    return snap == nullptr ? 0 : snap->version();
  }

  /// One replication cut: `newest` plus the per-shard versions (all 0
  /// before the first publish), read under a single lock so they describe
  /// the same instant, plus the partition's shard size.
  struct ExportCut {
    std::shared_ptr<const RouteSnapshot> newest;  ///< null before 1st publish
    std::vector<std::uint64_t> shard_versions;
    std::size_t shard_size = 1;
  };
  ExportCut export_cut() const FPSS_EXCLUDES(mutex_);

 private:
  const std::size_t node_count_;
  const std::size_t shard_count_;
  const std::size_t shard_size_;
  mutable util::Mutex mutex_;
  std::shared_ptr<const RouteSnapshot> newest_ FPSS_GUARDED_BY(mutex_);
  std::vector<std::uint64_t> shard_versions_ FPSS_GUARDED_BY(mutex_);
  std::uint64_t publishes_ FPSS_GUARDED_BY(mutex_) = 0;
};

}  // namespace fpss::service

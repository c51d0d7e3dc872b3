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

#include <cstdint>
#include <memory>
#include <vector>

#include "service/snapshot.h"
#include "util/mutex.h"
#include "util/types.h"

namespace fpss::service {

/// The k-shard publication point: destinations are partitioned into k
/// contiguous ranges ("shards", shard_of(j) = j / ceil(n/k)) and each
/// shard slot holds the snapshot whose publish last *changed* that
/// shard's sink trees. A publish swaps only the slots flagged dirty plus
/// the `newest` slot, so steady-state churn touching few sink trees does
/// k' + 1 refcount swaps, not k.
///
/// Consistency contract for readers: acquire() copies every slot under one
/// lock into a View. Slots may reference different snapshot objects, but
/// every destination's data block is *pointer-identical* across all of
/// them — the updater only publishes copy-on-write descendants (a full
/// rebuild flags every shard dirty), so a clean shard's rows in an old
/// root are the same immutable blocks the newest root holds. A View is
/// therefore one consistent cross-shard cut; `newest` supplies the
/// composite provenance (version, publish stamp) every reply in a query
/// batch reports, regardless of which slot served it.
///
/// The mutex (see the file comment) is also the only way k slots can be
/// read as one atomic cut at all.
class ShardedSnapshotStore {
 public:
  /// Partitions `node_count` destinations into `shard_count` contiguous
  /// shards. shard_count is clamped to [1, max(1, node_count)]; with one
  /// shard every publish is a whole-store pointer swap.
  ShardedSnapshotStore(std::size_t node_count, std::size_t shard_count);

  std::size_t shard_count() const { return shard_count_; }
  std::size_t shard_size() const { return shard_size_; }
  std::size_t shard_of(NodeId j) const { return j / shard_size_; }

  /// One consistent cross-shard cut, alive as long as the caller holds it.
  struct View {
    std::shared_ptr<const RouteSnapshot> newest;  ///< composite provenance
    std::vector<std::shared_ptr<const RouteSnapshot>> shards;
    std::size_t shard_size = 1;

    bool empty() const { return newest == nullptr; }
    /// The snapshot to answer a query about destination j from. Falls back
    /// to `newest` for a never-published slot (pre-first-publish queries
    /// are rejected upstream on `empty()`).
    const RouteSnapshot& for_destination(NodeId j) const {
      const auto& slot = shards[j / shard_size];
      return slot != nullptr ? *slot : *newest;
    }
  };

  View acquire() const FPSS_EXCLUDES(mutex_);

  /// The newest published snapshot (null until the first publish) — the
  /// full-image read used for persistence and version reporting.
  std::shared_ptr<const RouteSnapshot> newest() const FPSS_EXCLUDES(mutex_) {
    util::MutexLock lock(mutex_);
    return newest_;
  }

  /// Publishes `snapshot`: installs it as `newest` and into every shard
  /// slot flagged in `shard_dirty` (plus any slot still null, so the first
  /// publish fills the table). Returns the number of shard slots swapped.
  /// Precondition: snapshot non-null, version non-decreasing,
  /// shard_dirty.size() == shard_count(). The caller asserts that clean
  /// shards' blocks are shared with the previous publish (CoW contract
  /// above) — RouteService guarantees it by flagging every shard dirty on
  /// a full rebuild.
  std::size_t publish(std::shared_ptr<const RouteSnapshot> snapshot,
                      const std::vector<bool>& shard_dirty)
      FPSS_EXCLUDES(mutex_);

  /// Full publish: every shard flagged dirty.
  std::size_t publish_all(std::shared_ptr<const RouteSnapshot> snapshot)
      FPSS_EXCLUDES(mutex_);

  std::uint64_t publish_count() const FPSS_EXCLUDES(mutex_) {
    util::MutexLock lock(mutex_);
    return publishes_;
  }

  /// Composite version (the newest snapshot's); 0 before the first publish.
  std::uint64_t version() const {
    const auto snap = newest();
    return snap == nullptr ? 0 : snap->version();
  }

  /// One replication cut: `newest` plus the per-shard versions (0 for a
  /// never-published slot: how far behind `newest` each shard's
  /// last-changed publish is), read under a single lock so they describe
  /// the same instant, plus the partition's shard size.
  struct ExportCut {
    std::shared_ptr<const RouteSnapshot> newest;  ///< null before 1st publish
    std::vector<std::uint64_t> shard_versions;
    std::size_t shard_size = 1;
  };
  ExportCut export_cut() const FPSS_EXCLUDES(mutex_);

 private:
  const std::size_t shard_count_;
  const std::size_t shard_size_;
  mutable util::Mutex mutex_;
  std::shared_ptr<const RouteSnapshot> newest_ FPSS_GUARDED_BY(mutex_);
  std::vector<std::shared_ptr<const RouteSnapshot>> shards_
      FPSS_GUARDED_BY(mutex_);
  std::uint64_t publishes_ FPSS_GUARDED_BY(mutex_) = 0;
};

}  // namespace fpss::service

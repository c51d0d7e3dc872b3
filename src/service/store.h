// The publication point between a backend's one publisher (a primary's
// updater, which re-converges the network and builds fresh RouteSnapshots,
// or a replica's sync thread) and any number of reader threads serving
// queries.
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

/// A backend's one publication point, kept for the backend's whole life:
/// one snapshot (`newest`) plus one version per shard of destinations, in
/// the layout the producer names on each publish (shard_size_of). A shard's
/// version is the version of the publish that last *changed* one of its
/// destinations, which is what a replica's fetch is answered by: a
/// catch-up from `since` transfers only the shards whose version is above
/// it. The served version is the one clock every backend's waits, acks
/// and parked requests run on, and wait_for_version_beyond is the one
/// in-process wait on it.
///
/// publish() finds the moved shards itself, by block identity: a
/// destination moved iff its block is not the same object as in the
/// previous `newest`. That is exact because blocks are immutable (the same
/// object is the same content, changed content is always a new object) and
/// every producer shares unchanged rows by pointer: RouteSnapshot's export
/// and the replica's Assembler both keep their base's block wherever the
/// digests match. Only an export without a base makes a new block per row,
/// so every shard moves.
///
/// Readers get `newest` and nothing else: every reply is answered from the
/// snapshot whose version it carries. The store is empty (version 0, no
/// layout) until its first publish.
class ShardedSnapshotStore {
 public:
  /// The layout of the last publish (0 before the first).
  std::size_t shard_count() const FPSS_EXCLUDES(mutex_) {
    util::MutexLock lock(mutex_);
    return shard_versions_.size();
  }

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

  /// Publishes `snapshot` as `newest` in the producer's layout of
  /// `shard_count` shards, clamped to [1, max(1, n)], and wakes every
  /// waiter. Stamps its version onto every shard holding a destination
  /// whose block differs from the previous newest's. It re-bases instead,
  /// stamping every shard, on the first publish and on a publish whose
  /// layout or node count differs from the previous one or whose version
  /// is lower (an upstream that restarted from an older image). Returns
  /// the number of shards stamped. Preconditions: snapshot non-null, and
  /// one publisher per store.
  std::size_t publish(std::shared_ptr<const RouteSnapshot> snapshot,
                      std::size_t shard_count) FPSS_EXCLUDES(mutex_);

  /// The newest snapshot's version (0 before the first publish).
  std::uint64_t version() const {
    const auto snap = newest();
    return snap == nullptr ? 0 : snap->version();
  }

  /// Blocks until the served version exceeds `count` or `timeout_ms`
  /// elapses, and returns the served version either way.
  std::uint64_t wait_for_version_beyond(std::uint64_t count,
                                        int timeout_ms) const
      FPSS_EXCLUDES(mutex_);

  /// One replication cut: `newest` plus the per-shard versions (none
  /// before the first publish), read under a single lock so they describe
  /// the same instant.
  struct ExportCut {
    std::shared_ptr<const RouteSnapshot> newest;  ///< null before 1st publish
    std::vector<std::uint64_t> shard_versions;
  };
  ExportCut export_cut() const FPSS_EXCLUDES(mutex_);

 private:
  mutable util::Mutex mutex_;
  mutable util::CondVar published_cv_;  ///< mutex_; signaled per publish
  std::shared_ptr<const RouteSnapshot> newest_ FPSS_GUARDED_BY(mutex_);
  /// One per shard of the last publish's layout.
  std::vector<std::uint64_t> shard_versions_ FPSS_GUARDED_BY(mutex_);
};

}  // namespace fpss::service

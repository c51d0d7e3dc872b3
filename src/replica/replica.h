// replica::ReplicaService: a serving node whose snapshots arrive over
// fpss-wire instead of from a local pricing session — and whose writes
// are forwarded back up the same wire.
//
// A replica owns three upstream connections and one background sync
// thread:
//
//   fetch channel   ──► kSnapshotFetch(known shard versions)
//                       ◄── kSnapshotChunk* (dirty shards + final chunk)
//   notify channel  ──► kSubscribe(last publish count)
//                       ◄── kPublishNotify pushes (coalesced under bursts)
//   forward channel ──► kDeltaSubmit (writes relayed toward the primary)
//                       ◄── kDeltaAck (accepted + primary publish clock)
//
// The sync loop bootstraps with a full fetch (every shard), subscribes,
// and thereafter fetches only on a push — no polling. Each catch-up sends
// the shard-version vector from its previous sync's final chunk, so the
// primary streams exactly the shards whose version moved: a replica N
// publishes behind transfers O(dirty shards), not O(all shards). The
// reassembled snapshot (service::ReplicationCodec::Assembler — checksum
// verified, torn chunks rejected wholesale, fed chunk by chunk as they
// arrive) lands in the replica's own ShardedSnapshotStore in one publish,
// the same single-lock install the primary's publish does. The assembler
// shares the served blocks of every shard not fetched and adopts fetched
// blocks whose digest matches, so that publish stamps only the shards
// whose bytes changed; a downstream replica then refetches only those.
//
// Reads go through the same service::Request/Reply surface a primary
// serves, so a query answered by a replica is bit-identical to the
// primary's answer for the same snapshot version (the e2e equality tests
// pin this). ReplicaService implements service::Backend, which is what
// lets a net::RouteServer front it — replicas chain: primary -> replica ->
// replica, each tier fanning reads out further.
//
// Warm start: with a checkpoint directory configured, a loaded image is
// published before the sync thread starts, so it is served immediately
// (before the upstream is even reachable) and is the first sync's base
// like any served snapshot — wire blocks whose content matches the local
// image are dropped in favor of the already-resident ones. Once a sync
// has replaced it, nothing pins the image.
//
// Writes (PR 9): with forwarding enabled, kDeltaSubmit at any tier relays
// upstream over a dedicated forwarding connection until it reaches the
// primary, whose ack (accepted count + post-publish clock) rides back down
// unchanged. The forwarding path is bounded on every axis: a concurrent
// in-flight gate rejects excess writers with kOverloaded before they
// queue, and a retry budget with exponential backoff bounds how long one
// write can chase a dead upstream before kUnavailable.
//
// Failover: the sync loop and the forwarder share one upstream cursor over
// the configured fallback list. Whichever side observes a failure advances
// the cursor (round-robin, only if it still points at the failed entry, so
// two observers of one death advance once); the other side follows on its
// next (re)connect. While no upstream is reachable the replica keeps
// serving its last consistent cut — degraded, never torn.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "net/client.h"
#include "service/backend.h"
#include "service/protocol.h"
#include "service/replication.h"
#include "service/store.h"
#include "util/counters.h"
#include "util/mutex.h"

namespace fpss::replica {

struct ReplicaConfig {
  /// Where the primary (or upstream replica) listens.
  net::ClientConfig upstream;
  /// Fallback list: when non-empty it replaces `upstream` entirely and the
  /// replica fails over through it round-robin (sync and forwarding share
  /// the cursor). Order is preference order; entry 0 is tried first.
  std::vector<net::ClientConfig> upstreams;
  /// Warm-start checkpoint directory (see service::CheckpointPolicy).
  /// Empty disables the warm bootstrap.
  std::string checkpoint_directory;
  /// How long one await_notify slice blocks before the loop re-checks the
  /// stop flag. Latency ceiling for noticing shutdown, not for syncs —
  /// notifies wake the wait immediately.
  int notify_wait_ms = 200;
  /// Backoff between reconnect attempts after the upstream drops.
  int resync_backoff_ms = 100;
  /// Relay kDeltaSubmit to the upstream (false = read-only tier: submit
  /// reports kReadOnly and the fronting server should also set
  /// ServerConfig::allow_deltas = false).
  bool forward_deltas = true;
  /// Forwarding retry budget: total attempts across the fallback list
  /// before a write fails kUnavailable (1 = no retry).
  unsigned forward_attempts = 3;
  /// Backoff before forwarding attempt k is forward_backoff_ms << (k-1),
  /// capped at 1s.
  int forward_backoff_ms = 50;
  /// Writers allowed on the forwarding path at once (waiting included);
  /// the excess is rejected kOverloaded without blocking. 0 rejects every
  /// write — the deterministic back-pressure configuration.
  std::size_t forward_inflight_limit = 16;
};

class ReplicaService final : public service::Backend {
 public:
  /// Starts the background sync loop immediately. If a checkpoint is
  /// configured and loads, its snapshot is served at once; otherwise reads
  /// return kUnreachable-free empty-store behavior until the first sync
  /// (wait_until_ready() to block on it).
  explicit ReplicaService(ReplicaConfig config);
  ~ReplicaService() override;

  ReplicaService(const ReplicaService&) = delete;
  ReplicaService& operator=(const ReplicaService&) = delete;

  /// Blocks until a snapshot is being served (first sync or checkpoint
  /// load) or `timeout_ms` elapses; true when ready.
  bool wait_until_ready(int timeout_ms) const FPSS_EXCLUDES(store_mutex_);

  /// Blocks until the served version exceeds `version` or `timeout_ms`
  /// elapses; returns the served version either way.
  std::uint64_t wait_for_version_beyond(std::uint64_t version, int timeout_ms)
      const FPSS_EXCLUDES(store_mutex_);

  /// Stops the sync loop and closes the upstream connections. Idempotent;
  /// the destructor calls it. Reads keep working on the last synced state.
  void stop();

  net::ReplicaCounters replication_counters() const;

  /// The replica's own store (null before the first sync or checkpoint
  /// load). An *owning* copy: a concurrent layout-changing install may swap
  /// store_ and drop the last internal reference, so handing out the raw
  /// pointer would let the store die under the caller.
  std::shared_ptr<const service::ShardedSnapshotStore> store() const
      FPSS_EXCLUDES(store_mutex_);

  // --- service::Backend ----------------------------------------------------

  std::shared_ptr<const service::RouteSnapshot> snapshot() const override
      FPSS_EXCLUDES(store_mutex_);
  /// The chain-wide publish clock: the *upstream's* publish count as of
  /// this replica's last completed sync (not a local install tally). Every
  /// tier reports the same clock the primary advances, which is what makes
  /// a primary ack's publish count meaningful at any depth.
  std::uint64_t publish_count() const override;
  std::vector<service::Reply> query(
      std::span<const service::Request> batch) const override;
  service::Counters counters() const override;
  bool replica_counters(net::ReplicaCounters& out) const override {
    out = replication_counters();
    return true;
  }
  std::uint32_t hop_count() const override {
    return hop_.load(std::memory_order_relaxed);
  }
  /// Forwards the deltas upstream (see the file comment); kReadOnly when
  /// forwarding is disabled.
  service::SubmitAck submit_deltas(
      std::span<const service::Delta> deltas) override;
  /// No local updater to drain; returns the served version.
  std::uint64_t drain() override;
  /// What lets a downstream replica sync from this one; empty before the
  /// first sync, exactly like an unpublished primary.
  service::ShardedSnapshotStore::ExportCut export_cut() const override;
  std::uint64_t wait_for_publish_beyond(std::uint64_t count, int timeout_ms)
      const override FPSS_EXCLUDES(store_mutex_);

 private:
  /// One sync: fetch (full or dirty-only), reassemble, publish.
  /// `server_count` is the upstream publish count this sync covers
  /// (the notify that caused it); the chain-wide clock is raised to it
  /// atomically with the install. Returns false when the connection
  /// failed or a chunk was rejected (triggers a resync; nothing partial is
  /// ever published, and a rejection also drops the negotiation state).
  bool sync_once(std::uint64_t server_count);
  void sync_loop();
  /// Publishes an assembled snapshot into the store (a fresh store for a
  /// bootstrap or layout change) and raises the chain-wide clock to
  /// `server_count` under the same lock.
  void install(const service::ReplicationCodec::Assembler::Result& result,
               std::uint64_t server_count);

  // Shared reconnect state machine (sync loop + forwarder).
  std::size_t current_upstream_index() const;
  /// Advances the cursor iff `index` is still current — the loser of a
  /// double report is a no-op, so one upstream death advances once.
  void note_upstream_failure(std::size_t index);

  ReplicaConfig config_;
  std::vector<net::ClientConfig> upstreams_;  ///< resolved fallback list

  /// The served store plus the negotiation state from the last final
  /// chunk. The store pointer itself is swapped on layout changes, so
  /// readers copy it under the mutex (the store's own lock then provides
  /// the usual RCU cut). Independent of upstream_mutex_/forward_mutex_ —
  /// no replica path nests two of the three.
  mutable util::Mutex store_mutex_;
  std::shared_ptr<service::ShardedSnapshotStore> store_
      FPSS_GUARDED_BY(store_mutex_);
  /// Echoed in the next fetch.
  std::vector<std::uint64_t> synced_versions_ FPSS_GUARDED_BY(store_mutex_);

  mutable util::CondVar ready_cv_;  ///< store_mutex_; signaled per install
  /// Replica-local install tally.
  std::uint64_t installs_ FPSS_GUARDED_BY(store_mutex_) = 0;
  /// Upstream publish count at the last completed sync — what
  /// publish_count()/wait_for_publish_beyond report.
  std::uint64_t synced_publish_count_ FPSS_GUARDED_BY(store_mutex_) = 0;

  // Shared reconnect cursor into upstreams_.
  mutable util::Mutex upstream_mutex_;
  std::size_t upstream_index_ FPSS_GUARDED_BY(upstream_mutex_) = 0;

  // Upstream connections: sync-thread-only, re-created per failover cycle.
  std::unique_ptr<net::RouteClient> fetch_;
  std::unique_ptr<net::RouteClient> notify_;

  // Forwarding path: forward_mutex_ serializes the relay; the in-flight
  // gate counts waiters + the holder and rejects the excess unblocked.
  util::Mutex forward_mutex_;
  std::unique_ptr<net::RouteClient> forward_ FPSS_GUARDED_BY(forward_mutex_);
  std::size_t forward_upstream_index_ FPSS_GUARDED_BY(forward_mutex_) = 0;
  std::atomic<std::size_t> forward_inflight_{0};

  /// Chain depth: upstream's advertised hop + 1 once connected; a replica
  /// is at least one hop from a primary, so 1 before the first handshake.
  std::atomic<std::uint32_t> hop_{1};

  std::atomic<bool> stop_{false};
  bool stopped_ = false;  ///< stop() completed (caller thread only)

  /// The read side (any reader) and the sync and forwarding side (the
  /// sync thread and every forwarding writer). `publishes` is filled from
  /// installs_ and `hop_count` from hop_ instead.
  mutable util::LiveCounters<service::Counters> read_counters_;
  util::LiveCounters<net::ReplicaCounters> sync_counters_;

  std::thread sync_;  ///< last member: joined before state tears down
};

}  // namespace fpss::replica

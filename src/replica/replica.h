// replica::ReplicaService: a serving node whose snapshots arrive over
// fpss-wire instead of from a local pricing session — and whose writes
// are forwarded back up the same wire.
//
// A replica owns two upstream connections and one background sync
// thread:
//
//   sync channel    ──► kSnapshotFetch(since, wait)
//                       ◄── kPublishNotify, then, if fetch_streams,
//                           kSnapshotChunk* (moved shards + final)
//   forward channel ──► kDeltaSubmit (writes relayed toward the primary)
//                       ◄── kDeltaAck (accepted + the primary's version)
//
// The replica's clock is the version it serves, which is the primary's
// version of the same snapshot, and it is the whole sync state: each
// fetch sends it as `since`, and the upstream streams exactly the shards
// a publish after `since` changed, so a replica N publishes behind
// transfers O(dirty shards), not O(all shards). The sync loop keeps one
// fetch parked at its upstream, and the upstream answers once it
// publishes past `since` — so every sync is caused by a publish, and there
// is no separate notify round trip. A parked fetch that runs out (a 200 ms
// slice, which is what bounds stop()) streams only if the upstream serves
// another version (one below ours after it restarted), and is otherwise
// sent again. Two rules keep that state honest:
//   * A connection's first fetch does not park, and always streams, at
//     least its final chunk: a bootstrap, a failover or a warm start
//     catches up at once to whatever that upstream serves, and an
//     upstream serving our version with other content fails the final
//     chunk's checksum at once.
//   * A stream the assembler rejects makes the next fetch a bootstrap
//     (`since` = 0), which streams every shard. The upstream that sent it
//     is alive, so the replica re-dials that one for the bootstrap: the
//     shared cursor stays, and no upstream disconnect is counted.
// The reassembled snapshot (service::ReplicationCodec::Assembler
// — checksum verified, torn chunks rejected wholesale, fed chunk by chunk
// as they arrive) lands in the replica's own ShardedSnapshotStore in one
// publish, the same single-lock install the primary's publish does, named
// with the upstream stream's shard layout. The assembler shares the served
// blocks of every shard not fetched and adopts fetched blocks whose digest
// matches, so that publish stamps only the shards whose bytes changed; a
// downstream replica then refetches only those. The replica keeps that
// one store for its whole life: a bootstrap, an upstream re-shard or a
// version regression re-bases it in place (stamping every shard), and
// every wait on the served version blocks on the store.
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
// (before the upstream is even reachable), downstream too, under its own
// version, and is the first sync's base like any served snapshot: its
// version is the first fetch's `since`, so an upstream still serving it
// sends the final chunk alone, and wire blocks whose content matches the
// local image are dropped in favor of the already-resident ones. Once a
// sync has replaced it, nothing pins the image.
//
// Writes (PR 9): with forwarding enabled, kDeltaSubmit at any tier relays
// upstream over a dedicated forwarding connection (a
// net::RemoteQueryBackend, which re-dials a dropped connection and maps
// the upstream's typed refusals to SubmitAck statuses) until it reaches
// the primary, whose ack (accepted count + post-publish version) rides
// back down unchanged. The forwarding path is bounded on every axis: a
// concurrent in-flight gate rejects excess writers with kOverloaded before
// they queue, and a retry budget with exponential backoff bounds how long
// one write can chase a dead upstream before kUnavailable.
//
// Failover: the sync loop and the forwarder share one upstream cursor over
// the configured fallback list. Whichever side observes a failure (a failed
// dial or a lost connection; a rejected stream is not one) advances the
// cursor (round-robin, only if it still points at the failed entry, so two
// observers of one death advance once); the other side follows on its next
// (re)connect. While no upstream is reachable the replica keeps serving its
// last consistent cut — degraded, never torn.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "net/client.h"
#include "net/remote_backend.h"
#include "service/backend.h"
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
  /// Warm-start checkpoint directory (see service::load_checkpoint()).
  /// Empty disables the warm bootstrap.
  std::string checkpoint_directory;
  /// Backoff between reconnect attempts after the upstream drops.
  int resync_backoff_ms = 100;
  /// Relay kDeltaSubmit to the upstream (false = read-only tier: submit
  /// reports kReadOnly, which a fronting server relays as a kBadFrameType
  /// rejection).
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
  /// load), that is the store serves a version above 0, or `timeout_ms`
  /// elapses; true when ready.
  bool wait_until_ready(int timeout_ms) const {
    return wait_for_publish_beyond(0, timeout_ms) > 0;
  }

  /// Stops the sync loop and closes the upstream connections, within one
  /// parked fetch's slice. Idempotent; the destructor calls it. Reads keep
  /// working on the last synced state.
  void stop();

  net::ReplicaCounters replication_counters() const;

  /// The replica's own store, never null and valid for the replica's life
  /// (empty before the first sync or checkpoint load).
  const service::ShardedSnapshotStore* store() const {
    return &served_store();
  }

  // --- service::Backend: what a replica does differently -------------------

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
  std::uint64_t drain() override { return publish_count(); }

 private:
  /// How one fetch ended. Anything but kSynced ends the connection and
  /// resyncs; nothing partial is ever published.
  enum class SyncOutcome {
    kSynced,    ///< installed, or the park ran out; fetch again
    kLost,      ///< the connection failed: fail over to the next upstream
    kRejected,  ///< the assembler refused the stream: re-dial, bootstrap
  };
  /// One fetch on `upstream`: a connection's `first` answers at once,
  /// later ones park until the upstream publishes past the served
  /// version. A streamed reply is reassembled (full or dirty-only) and
  /// installed; a rejected one makes the next fetch a bootstrap.
  SyncOutcome sync_once(net::RouteClient& upstream, bool first);
  void sync_loop();
  /// Publishes an assembled snapshot in the stream's layout (the store
  /// re-bases itself on a bootstrap, layout change or version regression).
  /// Besides the constructor's warm image, the only publisher.
  void install(const service::ReplicationCodec::Assembler::Result& result);

  // Shared reconnect state machine (sync loop + forwarder).
  std::size_t current_upstream_index() const;
  /// Advances the cursor iff `index` is still current — the loser of a
  /// double report is a no-op, so one upstream death advances once.
  void note_upstream_failure(std::size_t index);

  ReplicaConfig config_;
  std::vector<net::ClientConfig> upstreams_;  ///< resolved fallback list

  /// The last stream was rejected, so the next fetch sends `since` = 0.
  /// Touched by the sync thread only.
  bool bootstrap_ = false;

  // Shared reconnect cursor into upstreams_. The forwarder takes it while
  // holding forward_mutex_; nothing takes forward_mutex_ under it.
  mutable util::Mutex upstream_mutex_;
  std::size_t upstream_index_ FPSS_GUARDED_BY(upstream_mutex_) = 0;

  // Forwarding path: forward_mutex_ serializes the relay; the in-flight
  // gate counts waiters + the holder and rejects the excess unblocked.
  // forward_ is the client for the upstream at forward_upstream_index_.
  util::Mutex forward_mutex_;
  std::unique_ptr<net::RemoteQueryBackend> forward_
      FPSS_GUARDED_BY(forward_mutex_);
  std::size_t forward_upstream_index_ FPSS_GUARDED_BY(forward_mutex_) = 0;
  std::atomic<std::size_t> forward_inflight_{0};

  /// Chain depth: upstream's advertised hop + 1 once connected; a replica
  /// is at least one hop from a primary, so 1 before the first handshake.
  std::atomic<std::uint32_t> hop_{1};

  std::atomic<bool> stop_{false};
  bool stopped_ = false;  ///< stop() completed (caller thread only)

  /// The sync and forwarding side (the sync thread and every forwarding
  /// writer; `hop_count` is filled from hop_ instead). The serving
  /// counters are the base's.
  util::LiveCounters<net::ReplicaCounters> sync_counters_;

  std::thread sync_;  ///< last member: joined before state tears down
};

}  // namespace fpss::replica

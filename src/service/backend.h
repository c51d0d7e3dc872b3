// service::Backend: the one interface every serving node implements.
//
// Two things serve routes: a RouteService (a primary, converging its own
// pricing session) and a replica::ReplicaService (mirroring an upstream
// over fpss-wire). net::RouteServer fronts either through this interface,
// which is what lets replicas chain: a replica's server feeds further
// replicas exactly as a primary's does. The interface sits below both
// implementers in the library layering (service -> net -> replica), so the
// value types it speaks live here at namespace scope; RouteService::Delta,
// RouteService::Counters and net::ReplicaCounters are aliases of them.
//
// A remote daemon is reached through net::RemoteQueryBackend, a concrete
// client with the same query/write/wait vocabulary but no base class:
// nothing calls a local and a remote backend through one pointer.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "service/protocol.h"
#include "service/snapshot.h"
#include "service/store.h"
#include "util/cost.h"
#include "util/counters.h"
#include "util/types.h"

namespace fpss::service {

/// One topology/cost change. A primary applies it asynchronously on its
/// updater; a forwarding replica relays it toward the primary.
struct Delta {
  enum class Kind {
    kCostChange,  ///< node u declares cost
    kAddLink,     ///< link {u, v} comes up
    kRemoveLink,  ///< link {u, v} goes down
    kRepublish,   ///< no topology change; refresh payment totals
  };
  Kind kind = Kind::kRepublish;
  NodeId u = kInvalidNode;
  NodeId v = kInvalidNode;
  Cost cost;

  static Delta cost_change(NodeId node, Cost c) {
    return {Kind::kCostChange, node, kInvalidNode, c};
  }
  static Delta add_link(NodeId a, NodeId b) {
    return {Kind::kAddLink, a, b, Cost::zero()};
  }
  static Delta remove_link(NodeId a, NodeId b) {
    return {Kind::kRemoveLink, a, b, Cost::zero()};
  }
  static Delta republish() { return {}; }
};

/// Aggregate serving counters (monotone except the gauges; kept in a
/// util::LiveCounters). A replica fills the read side and `publishes` only.
struct Counters {
  std::uint64_t queries = 0;   ///< individual query answers produced
  std::uint64_t batches = 0;   ///< query()/single-read calls served
  std::uint64_t total_ns = 0;  ///< wall time summed over batches
  std::uint64_t max_batch_ns = 0;
  /// Worst snapshot age ever observed by a read (gauge, monotone max):
  /// answer-time wall clock minus the served snapshot's publish stamp.
  std::uint64_t max_staleness_ns = 0;
  std::uint64_t publishes = 0;
  std::uint64_t deltas_applied = 0;
  /// Deltas that needed no reconvergence of their own because the
  /// updater coalesced them into another delta of the same burst
  /// (last-writer-wins per node/link; net no-ops dropped).
  std::uint64_t deltas_coalesced = 0;
  std::uint64_t charges = 0;  ///< charge() calls recorded
  // Incremental-publication counters. Cumulative over publishes.
  std::uint64_t rows_rebuilt = 0;  ///< destination rows re-extracted
  std::uint64_t rows_reused = 0;   ///< destination rows shared with prev
  /// Shards whose version a publish stamped, summed over publishes (<=
  /// publishes * shard count; the gap is the sharding win).
  std::uint64_t shards_republished = 0;
  /// Publishes that fell back to a full rebuild despite a previous
  /// snapshot existing (topology generation moved, dirty tracking had no
  /// usable answer). The unavoidable first build is not counted.
  std::uint64_t full_rebuilds = 0;
  std::uint64_t publish_total_ns = 0;  ///< export+publish wall time summed
  std::uint64_t max_publish_ns = 0;
  // Publish + checkpoint counters.
  /// Always 0 (a publish does not fan out per shard). Kept because
  /// perfbench reads the field by name.
  std::uint64_t shard_exports_inflight_max = 0;
  std::uint64_t checkpoints_written = 0;  ///< fresh images + catch-ups
  std::uint64_t checkpoint_bytes_written = 0;
  std::uint64_t journal_patches = 0;  ///< blocks in appended catch-ups
  std::uint64_t journal_compactions = 0;

  /// Frame order; see util/counters.h.
  static constexpr auto fields() {
    return std::to_array<util::CounterField<Counters>>({
        {"queries", &Counters::queries},
        {"batches", &Counters::batches},
        {"total_ns", &Counters::total_ns},
        {"max_batch_ns", &Counters::max_batch_ns},
        {"max_staleness_ns", &Counters::max_staleness_ns},
        {"publishes", &Counters::publishes},
        {"deltas_applied", &Counters::deltas_applied},
        {"deltas_coalesced", &Counters::deltas_coalesced},
        {"charges", &Counters::charges},
        {"rows_rebuilt", &Counters::rows_rebuilt},
        {"rows_reused", &Counters::rows_reused},
        {"shards_republished", &Counters::shards_republished},
        {"full_rebuilds", &Counters::full_rebuilds},
        {"publish_total_ns", &Counters::publish_total_ns},
        {"max_publish_ns", &Counters::max_publish_ns},
        {"shard_exports_inflight_max", &Counters::shard_exports_inflight_max},
        {"checkpoints_written", &Counters::checkpoints_written},
        {"checkpoint_bytes_written", &Counters::checkpoint_bytes_written},
        {"journal_patches", &Counters::journal_patches},
        {"journal_compactions", &Counters::journal_compactions},
    });
  }
};
static_assert(util::counters_complete<Counters>());

/// A replica's sync-side accounting, served locally and over the wire next
/// to the serving counters (absent on a primary).
struct ReplicaCounters {
  std::uint64_t full_syncs = 0;     ///< bootstraps fetching every shard
  std::uint64_t delta_syncs = 0;    ///< catch-ups fetching only dirty shards
  std::uint64_t shards_fetched = 0; ///< shard payloads received, cumulative
  std::uint64_t chunks_fetched = 0; ///< kSnapshotChunk frames received
  std::uint64_t bytes_fetched = 0;  ///< chunk payload bytes received
  std::uint64_t blocks_adopted = 0; ///< wire blocks swapped for local ones
  std::uint64_t notifies_received = 0;
  /// Publishes learned about only through a notify's coalesced tally —
  /// bursts the push path collapsed instead of queueing.
  std::uint64_t notifies_coalesced = 0;
  std::uint64_t resyncs = 0;        ///< upstream reconnects after a loss
  /// Gauge: at the last sync, now - the adopted snapshot's publish stamp.
  /// The stamp is the *primary's* publish time, so on a chain each tier's
  /// lag already compounds every upstream hop's lag.
  std::uint64_t sync_lag_ns = 0;
  std::uint64_t hop_count = 0;  ///< chain depth (1 = directly on the primary)
  /// Established upstream sessions lost (the degraded-to-last-cut events).
  std::uint64_t upstream_disconnects = 0;
  std::uint64_t deltas_forwarded = 0;  ///< deltas relayed upstream, accepted
  std::uint64_t forward_retries = 0;   ///< forwarding attempts that failed
  /// Writes rejected locally by the bounded in-flight gate (kOverloaded).
  std::uint64_t forward_rejected = 0;

  /// Frame order; see util/counters.h.
  static constexpr auto fields() {
    return std::to_array<util::CounterField<ReplicaCounters>>({
        {"full_syncs", &ReplicaCounters::full_syncs},
        {"delta_syncs", &ReplicaCounters::delta_syncs},
        {"shards_fetched", &ReplicaCounters::shards_fetched},
        {"chunks_fetched", &ReplicaCounters::chunks_fetched},
        {"bytes_fetched", &ReplicaCounters::bytes_fetched},
        {"blocks_adopted", &ReplicaCounters::blocks_adopted},
        {"notifies_received", &ReplicaCounters::notifies_received},
        {"notifies_coalesced", &ReplicaCounters::notifies_coalesced},
        {"resyncs", &ReplicaCounters::resyncs},
        {"sync_lag_ns", &ReplicaCounters::sync_lag_ns},
        {"hop_count", &ReplicaCounters::hop_count},
        {"upstream_disconnects", &ReplicaCounters::upstream_disconnects},
        {"deltas_forwarded", &ReplicaCounters::deltas_forwarded},
        {"forward_retries", &ReplicaCounters::forward_retries},
        {"forward_rejected", &ReplicaCounters::forward_rejected},
    });
  }
};
static_assert(util::counters_complete<ReplicaCounters>());

/// The result of a write, from any backend or over the wire. On kOk,
/// `publish_count` is the primary's publish clock after the write was
/// published — relayed unchanged by every forwarding tier, so
/// wait_for_publish_beyond(publish_count - 1) against the backend the
/// write entered then reads it, at any depth.
struct SubmitAck {
  enum class Status : std::uint8_t {
    kOk = 0,
    kReadOnly,     ///< the backend does not accept deltas
    kOverloaded,   ///< forwarding in-flight gate full; retry later
    kUnavailable,  ///< no upstream reachable within the retry budget
    kFailed,       ///< the round trip failed (net::RemoteQueryBackend only)
  };
  Status status = Status::kOk;
  std::uint64_t accepted = 0;
  std::uint64_t publish_count = 0;
  std::string error;  ///< display text; empty when ok
  bool ok() const { return status == Status::kOk; }
};

/// A remote read: the replies, or a non-empty `error` saying why there
/// are none (an in-process query cannot fail).
struct QueryOutcome {
  std::string error;
  std::vector<Reply> replies;
  bool ok() const { return error.empty(); }
};

class Backend {
 public:
  virtual ~Backend() = default;

  /// The newest served snapshot; null before the first. Version, publish
  /// stamp and node count of the served state all come from this one read,
  /// so they always describe the same snapshot.
  virtual std::shared_ptr<const RouteSnapshot> snapshot() const = 0;
  /// Cumulative publishes — the clock that write acks, subscriptions and
  /// read-your-write waits run on.
  virtual std::uint64_t publish_count() const = 0;
  /// Chain depth the hello ack advertises: 0 on a primary, upstream's hop
  /// + 1 on a replica.
  virtual std::uint32_t hop_count() const { return 0; }

  virtual std::vector<Reply> query(std::span<const Request> batch) const = 0;
  virtual Counters counters() const = 0;
  /// Fills `out` and returns true on a replica; a primary returns false
  /// and the counters frame omits the replica section.
  virtual bool replica_counters(ReplicaCounters& /*out*/) const {
    return false;
  }

  /// Applies (or forwards) deltas and returns once they are published.
  /// The server additionally gates the frame type on
  /// ServerConfig::allow_deltas.
  virtual SubmitAck submit_deltas(std::span<const Delta> deltas) = 0;
  /// Publish barrier; returns the served version afterwards.
  virtual std::uint64_t drain() = 0;

  /// One replication cut for kSnapshotFetch (newest == null before the
  /// first publish). The cut pins the snapshot it streams, so it stays
  /// valid however the backend's store changes while a transfer runs.
  virtual ShardedSnapshotStore::ExportCut export_cut() const = 0;
  /// Blocks until publish_count() exceeds `count` or `timeout_ms` elapses;
  /// returns the publish count at return. The subscription pusher calls
  /// this in bounded slices so it can interleave connection-liveness
  /// checks.
  virtual std::uint64_t wait_for_publish_beyond(std::uint64_t count,
                                                int timeout_ms) const = 0;
};

/// The read path both backends share. Answers `batch` from one acquired
/// `newest` of `store`: every reply carries that snapshot's version and
/// publish stamp and one shared answer-time clock reading. A null or empty
/// store (nothing served yet) answers kBadNode throughout. Records the
/// batch into `counters` (record_batch).
std::vector<Reply> answer_batch(const ShardedSnapshotStore* store,
                                std::span<const Request> batch,
                                util::LiveCounters<Counters>& counters);

/// Records one batch of `queries` answers begun at `start`, served from a
/// snapshot `age_ns` old, into the five read counters.
void record_batch(util::LiveCounters<Counters>& counters,
                  std::uint64_t queries, std::uint64_t age_ns,
                  std::chrono::steady_clock::time_point start);

}  // namespace fpss::service

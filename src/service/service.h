// RouteService: the long-lived serving layer over the paper's outputs.
//
// The mechanism's product — LCP routes and per-packet prices p^k_ij
// (Theorem 1) — is only useful to an operator if it can be *queried* under
// load while the network keeps changing. RouteService owns one
// pricing::Session plus a background updater thread and a
// ShardedSnapshotStore:
//
//   readers ──► ShardedSnapshotStore::acquire() ──► newest snapshot
//   updater ──► coalesce queued deltas ──► reconverge once per burst
//           ──► dirty_destinations() ──► RouteSnapshot::from_session
//                 (base = the served snapshot) ──► store publish, which
//                 stamps only the shards whose blocks changed
//           ──► incremental checkpoint (a catch-up stream appended to the
//               fpss-snap file) after readers are on the new epoch
//
// Publication is *incremental* end to end: the session fingerprints each
// destination's sink tree per converged epoch, the export re-extracts only
// the dirty destinations (copy-on-write against the served snapshot), and
// the store stamps a new version only on the shards containing them, so a
// replica's catch-up fetches only those. A single cost delta costs
// O(changed sink trees), not O(n^2); the rows_reused / shards_republished
// counters quantify it. Whenever the dirty set is unknown (first export,
// topology generation moved) every row is re-extracted — never guessed —
// and a row whose digest matches the served block keeps that block, so
// the store still stamps only the shards whose bytes changed.
//
// Readers never wait on reconvergence: a query acquires the current
// snapshot (a pointer copy) and serves entirely from flat arrays, so any
// number of threads can call price()/path()/payment() while the updater is
// mid-reconvergence. Staleness is the price: between a submitted delta and
// its publish, readers see the previous converged state — never a partial
// one (the paper's restart semantics make mid-convergence prices
// meaningless, so serving the old epoch is the only sound choice). Every
// reply therefore carries the snapshot version, its publish timestamp, and
// its age, and the counters track the worst staleness ever served.
//
// Queries use the wire-stable service::Request/service::Reply model
// (protocol.h), shared verbatim with the remote front end in src/net — a
// local query() and a remote route_query return bit-identical answers.
// RouteService implements service::Backend (backend.h) directly, so a
// net::RouteServer fronts it with no adapter.
//
// A warm start (the snapshot-taking constructor) publishes a previously
// saved snapshot as epoch 0 and serves it immediately; the session's first
// convergence is deferred to the updater and happens lazily when the first
// delta (or republish) arrives. A restarted daemon is thus serving
// stale-but-sound prices within milliseconds instead of after a full
// reconvergence. The first export takes the loaded snapshot as its base
// like any other, so only the shards whose rows moved across the restart
// are stamped.
//
// Traffic accounting (Sect. 6.4) rides along: charge() records per-packet
// prices into a payments::Ledger at the snapshot's prices, and the totals
// are embedded into the next published snapshot.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <thread>
#include <vector>

#include "payments/ledger.h"
#include "pricing/session.h"
#include "service/backend.h"
#include "service/checkpoint.h"
#include "service/protocol.h"
#include "service/snapshot.h"
#include "service/store.h"
#include "util/counters.h"
#include "util/mutex.h"

namespace fpss::service {

/// The owned session always runs the paper's price-vector protocol with
/// incremental updates, and every coalesced burst reconverges under the
/// restart barrier (pricing::RestartPolicy::kRestartBarrier), the policy
/// that is sound for any event.
struct ServiceConfig {
  /// Engine seams (scheduler, compute-phase threads, channel model) for
  /// the owned session.
  bgp::EngineConfig engine;
  /// Shards of the publication store (clamped to [1, node_count]). A
  /// publish stamps a new version only on the shards whose destinations'
  /// sink trees changed, and a replica catch-up fetches only those; 1
  /// makes every change refetch the whole snapshot.
  std::size_t shards = 1;
  /// Incremental checkpointing (one fpss-snap v5 file: a bootstrap stream
  /// plus appended catch-ups). The default (empty directory) disables it.
  CheckpointPolicy checkpoint;
};

class RouteService final : public Backend {
 public:
  using Delta = service::Delta;
  using Counters = service::Counters;

  /// Converges the initial network on the calling thread, publishes
  /// snapshot #1, then starts the background updater.
  explicit RouteService(const graph::Graph& g, ServiceConfig config = {});

  /// Warm start: publishes `warm` (a previously saved snapshot of the same
  /// network, typically from load_snapshot()) immediately as epoch 0 and
  /// returns without converging. The first submitted delta (or republish)
  /// triggers the session's initial convergence on the updater thread;
  /// until then readers are served the warm snapshot, whose age_ns makes
  /// the staleness visible. Payment totals embedded in `warm` seed the
  /// ledger, so accounting survives a daemon restart. Precondition:
  /// warm != nullptr and warm->node_count() == g.node_count().
  RouteService(const graph::Graph& g,
               std::shared_ptr<const RouteSnapshot> warm,
               ServiceConfig config = {});

  ~RouteService() override;

  RouteService(const RouteService&) = delete;
  RouteService& operator=(const RouteService&) = delete;

  std::size_t node_count() const { return node_count_; }

  // --- read side (any thread, wait-free vs. the updater) ------------------

  /// The newest published snapshot — a full image of the latest epoch.
  /// Hold it to answer any number of queries against one consistent epoch.
  std::shared_ptr<const RouteSnapshot> snapshot() const override {
    return store_.newest();
  }

  /// Answers a batch against one snapshot acquire (all answers share a
  /// version and a publish stamp) and records batch latency + staleness
  /// into the counters. Malformed requests yield Status::kBadNode /
  /// kBadKind replies — never undefined behavior.
  std::vector<Reply> query(std::span<const Request> batch) const override;

  /// Single-read conveniences; each counts as a batch of one. These keep
  /// the raw snapshot conventions (infinite cost when unreachable, zero
  /// price off-path); preconditions as in RouteSnapshot.
  Cost price(NodeId k, NodeId i, NodeId j) const;
  Cost cost(NodeId i, NodeId j) const;
  graph::Path path(NodeId i, NodeId j) const;
  Cost::rep payment(NodeId k) const;

  Counters counters() const override;

  // --- traffic accounting -------------------------------------------------

  /// Records `packets` packets i -> j into the ledger at the served
  /// snapshot's prices (Sect. 6.4 counter semantics). Totals reach readers
  /// with the next publish (submit Delta::republish() to force one).
  /// No-op when i cannot currently reach j.
  void charge(NodeId i, NodeId j, std::uint64_t packets)
      FPSS_EXCLUDES(ledger_mutex_);

  /// Flushes owed counters into settled accounts (periodic submission).
  void settle() FPSS_EXCLUDES(ledger_mutex_);

  // --- update side ---------------------------------------------------------

  /// Enqueues deltas for the updater; returns the number accepted (deltas
  /// naming out-of-range nodes are rejected — a remote peer must not be
  /// able to crash the daemon). All deltas accepted in one call are
  /// applied before the resulting publish; the updater coalesces each
  /// drained burst (last-writer-wins per node/link) into one
  /// reconvergence.
  std::size_t submit(Delta delta);
  std::size_t submit(const std::vector<Delta>& deltas)
      FPSS_EXCLUDES(queue_mutex_);
  /// Submit-then-drain: returns once the accepted deltas are published, so
  /// the ack carries the post-publish clock (the wire write contract).
  /// Local callers that want bursts coalesced use submit() instead.
  SubmitAck submit_deltas(std::span<const Delta> deltas) override;

  std::uint64_t publish_count() const override {
    return store_.publish_count();
  }
  /// Version of the served (newest) snapshot — what every reply in a
  /// batch reports.
  std::uint64_t version() const { return store_.version(); }
  std::size_t shard_count() const { return store_.shard_count(); }

  /// Blocks until at least `count` publishes have happened (use
  /// publish_count() + 1 before a submit to await its effect).
  void wait_for_publishes(std::uint64_t count) const
      FPSS_EXCLUDES(queue_mutex_);

  /// Bounded-wait variant for push loops: blocks until publish_count()
  /// exceeds `count` or `timeout_ms` elapses, and returns the current
  /// publish count either way. A subscription pusher polls this in slices
  /// so it can also observe connection teardown between publishes.
  std::uint64_t wait_for_publish_beyond(std::uint64_t count, int timeout_ms)
      const override FPSS_EXCLUDES(queue_mutex_);

  /// The sharded publication store readers acquire from.
  const ShardedSnapshotStore& store() const { return store_; }
  ShardedSnapshotStore::ExportCut export_cut() const override {
    return store_.export_cut();
  }

  /// Blocks until the delta queue is empty and everything submitted so far
  /// has been published; returns the served version.
  std::uint64_t drain() override FPSS_EXCLUDES(queue_mutex_);

 private:
  void updater_loop();
  /// Coalesces one drained burst and applies it in a single reconvergence;
  /// returns the number of events actually applied.
  std::size_t apply_coalesced(const std::vector<Delta>& batch);
  bool delta_in_range(const Delta& delta) const;
  /// Builds a snapshot from the (converged) session and publishes it.
  void publish_current() FPSS_EXCLUDES(ledger_mutex_, queue_mutex_);

  std::size_t node_count_;
  ServiceConfig config_;
  /// Owned network/engine. Touched only by the constructor (initial
  /// convergence, before the updater exists) and then by the updater
  /// thread — never by readers.
  pricing::Session session_;
  /// Published versions are version_base_ + converged_epochs(): zero for a
  /// cold start, the warm snapshot's version for a warm start (so versions
  /// keep increasing across a restart).
  std::uint64_t version_base_ = 0;
  /// False until the session's first convergence has run. Always true for
  /// a cold start; for a warm start the updater flips it before applying
  /// the first burst.
  bool session_converged_ = false;
  ShardedSnapshotStore store_;
  /// Whether this session has exported yet, and the converged epoch its
  /// last export captured. The dirty set since that epoch is asked for
  /// only after a first export: a warm-loaded snapshot came from disk, not
  /// from this session, so the first export re-extracts every row.
  /// Touched only by the updater (and the constructor).
  bool exported_ = false;
  std::uint64_t last_export_epoch_ = 0;
  /// Non-null iff config_.checkpoint names a directory. Updater-only.
  std::unique_ptr<CheckpointWriter> checkpoint_;

  /// Held across the export and its store publish (the ledger totals are
  /// embedded into the snapshot mid-export), so charge()/settle()
  /// serialize against the embed, never against readers. Never nested
  /// with queue_mutex_.
  mutable util::Mutex ledger_mutex_;
  payments::Ledger ledger_ FPSS_GUARDED_BY(ledger_mutex_);

  /// Lock order: queue_mutex_ before store_.mutex_ — the publish waiters
  /// call store_.publish_count() while holding queue_mutex_. The reverse
  /// nesting never happens (the store calls nothing of ours).
  mutable util::Mutex queue_mutex_;
  util::CondVar queue_cv_;           ///< wakes the updater
  mutable util::CondVar publish_cv_;  ///< wakes drain()/waiters
  std::vector<Delta> queue_ FPSS_GUARDED_BY(queue_mutex_);
  bool stop_ FPSS_GUARDED_BY(queue_mutex_) = false;
  bool updater_busy_ FPSS_GUARDED_BY(queue_mutex_) = false;

  /// Bumped by every reader (the read counters), the updater and the
  /// constructor's first publish (delta and publish counters) and
  /// charge(). `publishes` is read from the store instead.
  mutable util::LiveCounters<Counters> counters_;

  std::thread updater_;  ///< last member: joined before state tears down
};

}  // namespace fpss::service

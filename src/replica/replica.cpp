#include "replica/replica.h"

#include <algorithm>
#include <chrono>
#include <string_view>
#include <thread>
#include <utility>

#include "service/checkpoint.h"
#include "util/clock.h"

namespace fpss::replica {

using service::ReplicationCodec;
using service::RouteSnapshot;

namespace {

/// How long a parked fetch waits before the upstream answers with an
/// unchanged clock: the latency ceiling for noticing stop(), not for
/// syncs — a publish answers the fetch at once.
constexpr std::uint32_t kSyncSliceMs = 200;

/// A write this tier refuses, with the text the server relays to the peer.
service::SubmitAck refusal(service::SubmitAck::Status status) {
  service::SubmitAck ack;
  ack.status = status;
  switch (status) {
    case service::SubmitAck::Status::kReadOnly:
      ack.error = "delta submission disabled on this replica";
      break;
    case service::SubmitAck::Status::kOverloaded:
      ack.error = "forwarding queue full; retry later";
      break;
    default:
      ack.error = "no upstream reachable; write not applied";
      break;
  }
  return ack;
}

}  // namespace

ReplicaService::ReplicaService(ReplicaConfig config)
    : config_(std::move(config)) {
  upstreams_ = config_.upstreams.empty()
                   ? std::vector<net::ClientConfig>{config_.upstream}
                   : config_.upstreams;
  if (!config_.checkpoint_directory.empty()) {
    const service::SnapshotLoadResult loaded =
        service::load_checkpoint(config_.checkpoint_directory);
    if (loaded.ok()) {
      // Serve the disk image at once (a warm replica answers before the
      // upstream is reachable). As the served snapshot it is the first
      // wire sync's base, which shares its blocks wherever digests match.
      publish(loaded.snapshot, 1);
    }
  }
  sync_ = std::thread([this] { sync_loop(); });
}

ReplicaService::~ReplicaService() { stop(); }

void ReplicaService::stop() {
  if (stopped_) return;
  stopped_ = true;
  stop_.store(true, std::memory_order_relaxed);
  if (sync_.joinable()) sync_.join();
  util::MutexLock lock(forward_mutex_);
  forward_.reset();
}

// --- shared reconnect state machine -----------------------------------------

std::size_t ReplicaService::current_upstream_index() const {
  util::MutexLock lock(upstream_mutex_);
  return upstream_index_;
}

void ReplicaService::note_upstream_failure(std::size_t index) {
  util::MutexLock lock(upstream_mutex_);
  if (index == upstream_index_)
    upstream_index_ = (upstream_index_ + 1) % upstreams_.size();
}

// --- sync loop --------------------------------------------------------------

void ReplicaService::sync_loop() {
  bool ever_synced = false;
  while (!stop_.load(std::memory_order_relaxed)) {
    // Dial whichever upstream the shared cursor points at; a failed dial
    // or a lost connection advances it (round-robin over the fallback
    // list) and backs off, so a dead primary degrades this tier to its
    // last cut while the loop hunts for a live upstream. A rejected stream
    // came from a live upstream: the loop backs off and re-dials the same
    // one, whose next fetch is a bootstrap.
    const std::size_t target = current_upstream_index();
    net::RouteClient upstream(upstreams_[target]);
    SyncOutcome outcome = SyncOutcome::kLost;
    if (upstream.connect().ok()) {
      hop_.store(upstream.server_hop_count() + 1, std::memory_order_relaxed);
      for (bool first = true; !stop_.load(std::memory_order_relaxed);
           first = false) {
        outcome = sync_once(upstream, first);
        if (outcome != SyncOutcome::kSynced) break;
        ever_synced = true;
      }
      if (stop_.load(std::memory_order_relaxed)) return;
      if (ever_synced) sync_counters_.add(&net::ReplicaCounters::resyncs);
      if (ever_synced && outcome == SyncOutcome::kLost)
        sync_counters_.add(&net::ReplicaCounters::upstream_disconnects);
    }
    if (outcome == SyncOutcome::kLost) note_upstream_failure(target);
    std::this_thread::sleep_for(
        std::chrono::milliseconds(config_.resync_backoff_ms));
  }
}

ReplicaService::SyncOutcome ReplicaService::sync_once(
    net::RouteClient& upstream, bool first) {
  std::shared_ptr<const RouteSnapshot> base = snapshot();
  // The replica's clock is the version it serves (a warm image's included),
  // and as the fetch's `since` it is all the upstream needs to pick the
  // shards that moved. After a rejected stream the fetch asks for every
  // shard instead.
  const std::uint64_t served = base == nullptr ? 0 : base->version();
  const std::uint64_t since = bootstrap_ ? 0 : served;

  // Chunks go straight into the assembler as they arrive, so a fetch holds
  // one frame plus the assembly, and the first chunk it rejects ends it.
  ReplicationCodec::Assembler assembler(std::move(base));
  const net::Await await{since, first ? 0 : kSyncSliceMs};
  const net::SnapshotFetchResult fetched = upstream.fetch_snapshot(
      await, [&assembler](std::string_view chunk) {
        return assembler.feed(chunk);
      });
  sync_counters_.add(&net::ReplicaCounters::chunks_fetched, fetched.chunks);
  sync_counters_.add(&net::ReplicaCounters::bytes_fetched, fetched.bytes);
  if (!fetched.ok() && !fetched.streamed) return SyncOutcome::kLost;
  if (!fetched.streamed) return SyncOutcome::kSynced;  // the park ran out

  // The publishes this notify skipped past the served version: a replica
  // slower than the publish rate syncs to the newest state, never through
  // a backlog.
  const std::uint64_t version = fetched.notify.snapshot_version;
  sync_counters_.add(&net::ReplicaCounters::notifies_received);
  sync_counters_.add(&net::ReplicaCounters::notifies_coalesced,
                     version > served + 1 ? version - served - 1 : 0);
  if (!fetched.ok() && assembler.error().empty()) return SyncOutcome::kLost;

  ReplicationCodec::Assembler::Result result = assembler.finish();
  // A torn, rejected or inconsistent stream publishes nothing, and the
  // retry asks for every shard: the safe answer to an upstream whose
  // content at our version is not ours (another lineage, or a layout
  // change).
  bootstrap_ = !result.ok();
  if (!result.ok()) return SyncOutcome::kRejected;

  sync_counters_.add(&net::ReplicaCounters::shards_fetched,
                     result.shards_sent.size());
  sync_counters_.add(&net::ReplicaCounters::blocks_adopted,
                     result.blocks_adopted);
  sync_counters_.add(since == 0 ? &net::ReplicaCounters::full_syncs
                                : &net::ReplicaCounters::delta_syncs);
  // The lag is taken before install() wakes the tiers below: a child that
  // syncs this snapshot from us measures later, so its lag is never below
  // ours.
  sync_counters_.set(&net::ReplicaCounters::sync_lag_ns,
                     util::age_from(result.snapshot->published_at_ns(),
                                    util::wall_clock_ns()));
  install(result);
  return SyncOutcome::kSynced;
}

void ReplicaService::install(
    const ReplicationCodec::Assembler::Result& result) {
  const std::shared_ptr<const RouteSnapshot>& snap = result.snapshot;
  const std::shared_ptr<const RouteSnapshot> served = snapshot();
  // Nothing moved at all (a connection's first fetch found the upstream
  // serving this very cut, in this layout): skip the publish. The served
  // version did not move, so no waiter needs waking.
  if (result.shards_sent.empty() && served != nullptr &&
      served->version() == snap->version() &&
      served->checksum() == snap->checksum() &&
      served_store().shard_count() == result.shard_count)
    return;
  // One publish. The assembler shared the served blocks of every shard not
  // fetched and adopted fetched blocks whose bytes did not change, so the
  // store stamps only the shards that really moved. A bootstrap, a layout
  // or node-count change, or an upstream version regression (a primary
  // restarted from an older checkpoint) re-bases it, stamping every shard.
  publish(snap, result.shard_count);
}

// --- counters and writes --------------------------------------------------

net::ReplicaCounters ReplicaService::replication_counters() const {
  net::ReplicaCounters c = sync_counters_.read();
  c.hop_count = hop_.load(std::memory_order_relaxed);
  return c;
}

service::SubmitAck ReplicaService::submit_deltas(
    std::span<const service::Delta> deltas) {
  using Status = service::SubmitAck::Status;
  if (!config_.forward_deltas) return refusal(Status::kReadOnly);
  service::SubmitAck outcome;
  if (deltas.empty()) {
    outcome.publish_count = publish_count();
    return outcome;
  }
  // The in-flight gate counts every writer on the path (waiting on
  // forward_mutex_ included) and rejects the excess before it blocks —
  // back-pressure is a fast typed refusal, not a growing queue.
  if (forward_inflight_.fetch_add(1, std::memory_order_acq_rel) >=
      config_.forward_inflight_limit) {
    forward_inflight_.fetch_sub(1, std::memory_order_acq_rel);
    sync_counters_.add(&net::ReplicaCounters::forward_rejected);
    return refusal(Status::kOverloaded);
  }

  outcome = refusal(Status::kUnavailable);
  util::MutexLock lock(forward_mutex_);
  const unsigned attempts = std::max(1u, config_.forward_attempts);
  for (unsigned attempt = 0; attempt < attempts; ++attempt) {
    if (stop_.load(std::memory_order_relaxed)) break;
    if (attempt > 0) {
      const int backoff = std::min(
          1000, config_.forward_backoff_ms << std::min(attempt - 1, 10u));
      std::this_thread::sleep_for(std::chrono::milliseconds(backoff));
    }
    // Follow the shared cursor: a failover observed by the sync loop (or a
    // previous write) redirects this connection too.
    const std::size_t target = current_upstream_index();
    if (forward_ == nullptr || forward_upstream_index_ != target) {
      forward_ = std::make_unique<net::RemoteQueryBackend>(upstreams_[target]);
      forward_upstream_index_ = target;
    }
    // Dials a new connection, or re-dials one that failed or that the
    // upstream closed while it sat idle; a live one is reused as is.
    service::SubmitAck relayed = forward_->submit_deltas(deltas);
    if (relayed.ok())
      sync_counters_.add(&net::ReplicaCounters::deltas_forwarded,
                         relayed.accepted);
    // Upstream back-pressure ends the write too: retrying immediately
    // would pile on, so the typed refusal goes straight back to the writer.
    if (relayed.ok() || relayed.status == Status::kOverloaded) {
      outcome = std::move(relayed);
      break;
    }
    note_upstream_failure(target);
    sync_counters_.add(&net::ReplicaCounters::forward_retries);
  }
  forward_inflight_.fetch_sub(1, std::memory_order_acq_rel);
  return outcome;
}

}  // namespace fpss::replica

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
using service::ShardedSnapshotStore;

namespace {

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
      auto warm = std::make_shared<ShardedSnapshotStore>(
          loaded.snapshot->node_count(), 1);
      warm->publish(loaded.snapshot);
      util::MutexLock lock(store_mutex_);
      store_ = std::move(warm);
      ++installs_;
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
  fetch_.reset();
  notify_.reset();
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
  std::uint64_t last_server_count = 0;
  bool ever_synced = false;
  while (!stop_.load(std::memory_order_relaxed)) {
    // Dial whichever upstream the shared cursor points at; every failure
    // below advances it (round-robin over the fallback list) and backs
    // off, so a dead primary degrades this tier to its last cut while the
    // loop hunts for a live upstream.
    const std::size_t target = current_upstream_index();
    const auto fail_over = [&](bool established) {
      if (established) {
        resyncs_.fetch_add(1, std::memory_order_relaxed);
        upstream_disconnects_.fetch_add(1, std::memory_order_relaxed);
      }
      fetch_.reset();
      notify_.reset();
      note_upstream_failure(target);
      std::this_thread::sleep_for(
          std::chrono::milliseconds(config_.resync_backoff_ms));
    };
    fetch_ = std::make_unique<net::RouteClient>(upstreams_[target]);
    notify_ = std::make_unique<net::RouteClient>(upstreams_[target]);
    // (Re)establish both channels. Subscribe *before* the catch-up fetch:
    // any publish that lands after the fetch is then covered by a pending
    // notify, so there is no window a version can slip through unseen.
    if (!notify_->connect().ok() || !fetch_->connect().ok()) {
      fail_over(false);
      continue;
    }
    hop_.store(notify_->server_hop_count() + 1, std::memory_order_relaxed);
    const net::NotifyResult sub = notify_->subscribe(last_server_count);
    if (!sub.ok()) {
      fail_over(false);
      continue;
    }
    notifies_received_.fetch_add(1, std::memory_order_relaxed);
    notifies_coalesced_.fetch_add(sub.notify.coalesced,
                                  std::memory_order_relaxed);
    last_server_count = sub.notify.publish_count;
    if (!sync_once(last_server_count)) {
      fail_over(ever_synced);
      continue;
    }
    ever_synced = true;

    // Steady state: push-driven only. Every pull below is caused by a
    // kPublishNotify; the timeout branch exists solely to re-check the
    // stop flag.
    while (!stop_.load(std::memory_order_relaxed)) {
      const net::NotifyResult pushed =
          notify_->await_notify(config_.notify_wait_ms);
      if (pushed.error.status == net::ClientStatus::kTimeout) continue;
      if (!pushed.ok()) break;  // connection lost; resync
      notifies_received_.fetch_add(1, std::memory_order_relaxed);
      notifies_coalesced_.fetch_add(pushed.notify.coalesced,
                                    std::memory_order_relaxed);
      last_server_count =
          std::max(last_server_count, pushed.notify.publish_count);
      if (!sync_once(last_server_count)) break;
    }
    if (stop_.load(std::memory_order_relaxed)) return;
    fail_over(true);
  }
}

bool ReplicaService::sync_once(std::uint64_t server_count) {
  std::vector<std::uint64_t> known;
  std::shared_ptr<const RouteSnapshot> base;
  {
    util::MutexLock lock(store_mutex_);
    known = synced_versions_;
    if (store_ != nullptr) base = store_->newest();
  }

  // Chunks go straight into the assembler as they arrive, so a fetch holds
  // one frame plus the assembly, and the first chunk it rejects ends it.
  ReplicationCodec::Assembler assembler(std::move(base));
  const net::SnapshotFetchResult fetched = fetch_->fetch_snapshot(
      known, [&assembler](std::string_view chunk) {
        return assembler.feed(chunk);
      });
  chunks_fetched_.fetch_add(fetched.chunks, std::memory_order_relaxed);
  bytes_fetched_.fetch_add(fetched.bytes, std::memory_order_relaxed);
  if (!fetched.ok() && assembler.error().empty()) return false;

  ReplicationCodec::Assembler::Result result = assembler.finish();
  if (!result.ok()) {
    // A torn, rejected or inconsistent stream publishes nothing. Drop the
    // negotiation state so the retry is a full bootstrap — the safe
    // answer to a server whose layout (or identity) changed under us.
    util::MutexLock lock(store_mutex_);
    synced_versions_.clear();
    return false;
  }

  shards_fetched_.fetch_add(result.shards_sent.size(),
                            std::memory_order_relaxed);
  blocks_adopted_.fetch_add(result.blocks_adopted, std::memory_order_relaxed);
  if (known.size() == result.shard_versions.size()) {
    delta_syncs_.fetch_add(1, std::memory_order_relaxed);
  } else {
    full_syncs_.fetch_add(1, std::memory_order_relaxed);
  }
  install(result, server_count);
  sync_lag_ns_.store(util::age_from(result.snapshot->published_at_ns(),
                                    util::wall_clock_ns()),
                     std::memory_order_relaxed);
  return true;
}

void ReplicaService::install(
    const ReplicationCodec::Assembler::Result& result,
    std::uint64_t server_count) {
  const std::shared_ptr<const RouteSnapshot>& snap = result.snapshot;
  util::MutexLock lock(store_mutex_);
  // Raise the chain-wide clock in the same critical section that makes
  // the synced state readable: a waiter woken by this install must not
  // be able to read a publish_count() older than what it sees served.
  // (Notified here, not only at the end — the nothing-moved branch below
  // returns early but clock waiters still need the wake-up.)
  if (server_count > synced_publish_count_) {
    synced_publish_count_ = server_count;
    ready_cv_.notify_all();
  }
  const bool rebuild =
      store_ == nullptr ||
      store_->shard_count() != result.shard_count ||
      store_->newest() == nullptr ||
      store_->newest()->node_count() != snap->node_count() ||
      store_->version() > snap->version();
  if (rebuild) {
    // Bootstrap, layout change, or upstream version regression (a primary
    // restarted from an older checkpoint): start a fresh store shaped
    // like the server's; its first publish stamps every shard.
    auto fresh = std::make_shared<ShardedSnapshotStore>(snap->node_count(),
                                                        result.shard_count);
    fresh->publish(snap);
    store_ = std::move(fresh);
  } else if (result.shards_sent.empty() &&
             store_->version() == snap->version() &&
             store_->newest()->checksum() == snap->checksum()) {
    // Nothing moved at all (e.g. the notify raced a sync that already
    // caught up); adopt the negotiation state and skip the publish.
    synced_versions_ = result.shard_versions;
    return;
  } else {
    // Catch-up: one publish. The assembler shared the served blocks of
    // every shard not fetched and adopted fetched blocks whose bytes did
    // not change, so the store stamps only the shards that really moved.
    store_->publish(snap);
  }
  synced_versions_ = result.shard_versions;
  ++installs_;
  ready_cv_.notify_all();
}

// --- waiting ----------------------------------------------------------------

bool ReplicaService::wait_until_ready(int timeout_ms) const {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  util::MutexLock lock(store_mutex_);
  while (store_ == nullptr)
    if (ready_cv_.wait_until(lock, deadline) == std::cv_status::timeout)
      break;
  return store_ != nullptr;
}

std::uint64_t ReplicaService::wait_for_version_beyond(std::uint64_t version,
                                                      int timeout_ms) const {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  util::MutexLock lock(store_mutex_);
  while (store_ == nullptr || store_->version() <= version)
    if (ready_cv_.wait_until(lock, deadline) == std::cv_status::timeout)
      break;
  return store_ == nullptr ? 0 : store_->version();
}

std::uint64_t ReplicaService::wait_for_publish_beyond(std::uint64_t count,
                                                      int timeout_ms) const {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  util::MutexLock lock(store_mutex_);
  while (synced_publish_count_ <= count)
    if (ready_cv_.wait_until(lock, deadline) == std::cv_status::timeout)
      break;
  return synced_publish_count_;
}

// --- read side --------------------------------------------------------------

std::shared_ptr<const service::ShardedSnapshotStore> ReplicaService::store()
    const {
  // An owning copy, not store_.get(): a layout-changing install swaps
  // store_ under the mutex, and if this replica's copy was the last
  // reference the store would be destroyed while the caller still reads
  // it. The shared_ptr pins the displaced store until the caller is done.
  util::MutexLock lock(store_mutex_);
  return store_;
}

std::shared_ptr<const RouteSnapshot> ReplicaService::snapshot() const {
  const auto served = store();
  return served == nullptr ? nullptr : served->newest();
}

ShardedSnapshotStore::ExportCut ReplicaService::export_cut() const {
  const auto served = store();
  return served == nullptr ? ShardedSnapshotStore::ExportCut{}
                           : served->export_cut();
}

std::uint64_t ReplicaService::publish_count() const {
  util::MutexLock lock(store_mutex_);
  return synced_publish_count_;
}

std::vector<service::Reply> ReplicaService::query(
    std::span<const service::Request> batch) const {
  return reads_.query(store().get(), batch);
}

service::Counters ReplicaService::counters() const {
  service::Counters c;
  reads_.fill(c);
  {
    // Local installs, not the chain-wide clock: "how many times did this
    // tier's store move" is the serving-health question counters answer.
    util::MutexLock lock(store_mutex_);
    c.publishes = installs_;
  }
  return c;
}

net::ReplicaCounters ReplicaService::replication_counters() const {
  net::ReplicaCounters c;
  c.full_syncs = full_syncs_.load(std::memory_order_relaxed);
  c.delta_syncs = delta_syncs_.load(std::memory_order_relaxed);
  c.shards_fetched = shards_fetched_.load(std::memory_order_relaxed);
  c.chunks_fetched = chunks_fetched_.load(std::memory_order_relaxed);
  c.bytes_fetched = bytes_fetched_.load(std::memory_order_relaxed);
  c.blocks_adopted = blocks_adopted_.load(std::memory_order_relaxed);
  c.notifies_received = notifies_received_.load(std::memory_order_relaxed);
  c.notifies_coalesced = notifies_coalesced_.load(std::memory_order_relaxed);
  c.resyncs = resyncs_.load(std::memory_order_relaxed);
  c.sync_lag_ns = sync_lag_ns_.load(std::memory_order_relaxed);
  c.hop_count = hop_.load(std::memory_order_relaxed);
  c.upstream_disconnects =
      upstream_disconnects_.load(std::memory_order_relaxed);
  c.deltas_forwarded = deltas_forwarded_.load(std::memory_order_relaxed);
  c.forward_retries = forward_retries_.load(std::memory_order_relaxed);
  c.forward_rejected = forward_rejected_.load(std::memory_order_relaxed);
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
    forward_rejected_.fetch_add(1, std::memory_order_relaxed);
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
    if (forward_ == nullptr || !forward_->connected() ||
        forward_upstream_index_ != target) {
      forward_ = std::make_unique<net::RouteClient>(upstreams_[target]);
      forward_upstream_index_ = target;
      if (!forward_->connect().ok()) {
        forward_.reset();
        note_upstream_failure(target);
        forward_retries_.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
    }
    const net::SubmitResult relayed = forward_->submit_deltas(deltas);
    if (relayed.ok()) {
      deltas_forwarded_.fetch_add(relayed.accepted,
                                  std::memory_order_relaxed);
      outcome = {};
      outcome.accepted = relayed.accepted;
      outcome.publish_count = relayed.publish_count;
      break;
    }
    if (relayed.error.status == net::ClientStatus::kServerError &&
        relayed.error.wire_status == net::WireStatus::kOverloaded) {
      // Upstream back-pressure: retrying immediately would pile on; hand
      // the typed refusal straight back to the writer instead.
      outcome = refusal(Status::kOverloaded);
      forward_.reset();  // the server closed the connection after kError
      break;
    }
    forward_.reset();
    note_upstream_failure(target);
    forward_retries_.fetch_add(1, std::memory_order_relaxed);
  }
  forward_inflight_.fetch_sub(1, std::memory_order_acq_rel);
  return outcome;
}

std::uint64_t ReplicaService::drain() {
  const auto snap = snapshot();
  return snap == nullptr ? 0 : snap->version();
}

}  // namespace fpss::replica

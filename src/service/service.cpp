#include "service/service.h"

#include <chrono>
#include <map>
#include <utility>

#include "util/clock.h"
#include "util/contract.h"

namespace fpss::service {

namespace {

std::uint64_t elapsed_ns(std::chrono::steady_clock::time_point start) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
}

}  // namespace

RouteService::RouteService(const graph::Graph& g, ServiceConfig config)
    : node_count_(g.node_count()),
      config_(config),
      session_(g, config.protocol, config.engine, config.update_policy),
      store_(g.node_count(), config.shards),
      ledger_(g.node_count()) {
  // Dirty sink-tree tracking powers the incremental exports; enable it
  // before the first convergence so that run doubles as the baseline.
  session_.track_dirty_destinations(true);
  if (!config_.checkpoint.directory.empty())
    checkpoint_ = std::make_unique<CheckpointWriter>(config_.checkpoint);
  // Initial convergence happens on the constructing thread, before the
  // updater exists — the service never serves a non-converged state.
  const bgp::RunStats stats = session_.run();
  FPSS_ASSERT(stats.converged);
  session_converged_ = true;
  publish_current();
  updater_ = std::thread([this] { updater_loop(); });
}

RouteService::RouteService(const graph::Graph& g,
                           std::shared_ptr<const RouteSnapshot> warm,
                           ServiceConfig config)
    : node_count_(g.node_count()),
      config_(config),
      session_(g, config.protocol, config.engine, config.update_policy),
      store_(g.node_count(), config.shards),
      ledger_(g.node_count()) {
  FPSS_EXPECTS(warm != nullptr && warm->node_count() == g.node_count());
  session_.track_dirty_destinations(true);
  if (!config_.checkpoint.directory.empty())
    checkpoint_ = std::make_unique<CheckpointWriter>(config_.checkpoint);
  // Serve the saved epoch immediately; convergence is deferred to the
  // updater and happens when the first burst arrives. Future publishes
  // must outnumber the warm version, so it becomes the version base.
  version_base_ = warm->version();
  std::vector<Cost::rep> owed(node_count_), settled(node_count_);
  for (NodeId k = 0; k < node_count_; ++k) {
    owed[k] = warm->payment_owed(k);
    settled[k] = warm->payment_settled(k);
  }
  ledger_.restore(std::move(owed), std::move(settled));
  // The warm snapshot is served as is; it is NOT a CoW base for later
  // exports (its blocks came from disk, not from this session), so
  // last_published_ stays null and the first real publish rebuilds fully —
  // but it IS the digest-adoption donor: the pipeline keeps its blocks
  // wherever the fresh export reproduces them, so only genuinely-changed
  // shards are stamped on that first publish.
  warm_base_ = warm;
  store_.publish(std::move(warm));
  updater_ = std::thread([this] { updater_loop(); });
}

RouteService::~RouteService() {
  {
    util::MutexLock lock(queue_mutex_);
    stop_ = true;
  }
  queue_cv_.notify_all();
  updater_.join();
}

// --- updater ---------------------------------------------------------------

void RouteService::updater_loop() {
  for (;;) {
    std::vector<Delta> batch;
    {
      util::MutexLock lock(queue_mutex_);
      updater_busy_ = false;
      publish_cv_.notify_all();  // drain(): queue empty and nothing in flight
      while (!stop_ && queue_.empty()) queue_cv_.wait(lock);
      if (stop_) return;  // shutdown discards unapplied deltas
      batch.swap(queue_);
      updater_busy_ = true;
    }
    // Warm start: the session's first convergence was deferred to here.
    if (!session_converged_) {
      const bgp::RunStats stats = session_.run();
      FPSS_ASSERT(stats.converged);
      session_converged_ = true;
    }
    const std::size_t applied = apply_coalesced(batch);
    deltas_applied_.fetch_add(batch.size(), std::memory_order_relaxed);
    // Each burst costs one reconvergence + publish; everything beyond the
    // applied events rode along for free.
    const std::size_t effective = applied == 0 ? 1 : applied;
    if (batch.size() > effective)
      deltas_coalesced_.fetch_add(batch.size() - effective,
                                  std::memory_order_relaxed);
    publish_current();
  }
}

std::size_t RouteService::apply_coalesced(const std::vector<Delta>& batch) {
  // Last-writer-wins per key: one final cost per node, one final link op
  // per undirected pair. Distinct keys commute, so applying the survivors
  // in any fixed order and reconverging once reaches exactly the state a
  // delta-by-delta application would have reached.
  std::map<NodeId, Cost> final_cost;
  std::map<std::pair<NodeId, NodeId>, Delta::Kind> final_link;
  for (const Delta& delta : batch) {
    switch (delta.kind) {
      case Delta::Kind::kCostChange:
        final_cost[delta.u] = delta.cost;
        break;
      case Delta::Kind::kAddLink:
      case Delta::Kind::kRemoveLink:
        final_link[std::minmax(delta.u, delta.v)] = delta.kind;
        break;
      case Delta::Kind::kRepublish:
        break;
    }
  }
  const graph::Graph& g = session_.network().topology();
  std::vector<pricing::Session::Event> events;
  events.reserve(final_cost.size() + final_link.size());
  for (const auto& [node, cost] : final_cost) {
    if (g.cost(node) == cost) continue;  // net no-op
    events.push_back(pricing::Session::Event::cost_change(node, cost));
  }
  for (const auto& [link, kind] : final_link) {
    const bool present = g.has_edge(link.first, link.second);
    if (kind == Delta::Kind::kAddLink && !present)
      events.push_back(
          pricing::Session::Event::add_link(link.first, link.second));
    else if (kind == Delta::Kind::kRemoveLink && present)
      events.push_back(
          pricing::Session::Event::remove_link(link.first, link.second));
    // A burst whose link ops net out to the current topology (add+remove,
    // or a redundant op) needs no event at all.
  }
  if (!events.empty()) {
    const bgp::RunStats stats = session_.apply_events(events, config_.restart);
    FPSS_ASSERT(stats.converged);
  }
  return events.size();
}

bool RouteService::delta_in_range(const Delta& delta) const {
  switch (delta.kind) {
    case Delta::Kind::kCostChange:
      return delta.u < node_count_;
    case Delta::Kind::kAddLink:
    case Delta::Kind::kRemoveLink:
      return delta.u < node_count_ && delta.v < node_count_ &&
             delta.u != delta.v;
    case Delta::Kind::kRepublish:
      return true;
  }
  return false;  // unknown kind (e.g. decoded from a hostile frame)
}

void RouteService::publish_current() {
  FPSS_ASSERT(session_.engine().stats().converged);
  const auto start = std::chrono::steady_clock::now();
  const std::uint64_t epoch = session_.engine().converged_epochs();
  const std::uint64_t version = version_base_ + epoch;
  util::ThreadPool* pool = session_.engine().pool();

  // The incremental paths need a CoW base (a previous export of this
  // session) and a usable dirty set since that export's epoch; anything
  // else the pipeline turns into a full build.
  std::optional<std::vector<NodeId>> dirty;
  if (last_published_ != nullptr)
    dirty = session_.dirty_destinations(last_export_epoch_);

  PipelineStats stats;
  std::shared_ptr<const RouteSnapshot> snap;
  {
    util::MutexLock lock(ledger_mutex_);
    snap = PublishPipeline::run(store_, last_published_, warm_base_, session_,
                                version, dirty, &ledger_, pool, &stats);
  }
  warm_base_ = nullptr;  // adoption is a first-publish-only affair

  last_published_ = snap;
  last_export_epoch_ = epoch;
  rows_rebuilt_.fetch_add(stats.rows_rebuilt, std::memory_order_relaxed);
  rows_reused_.fetch_add(stats.rows_reused, std::memory_order_relaxed);
  shards_republished_.fetch_add(stats.shards_swapped,
                                std::memory_order_relaxed);
  if (stats.full_rebuild)
    full_rebuilds_.fetch_add(1, std::memory_order_relaxed);
  const std::uint64_t ns = elapsed_ns(start);
  publish_total_ns_.fetch_add(ns, std::memory_order_relaxed);
  std::uint64_t seen = max_publish_ns_.load(std::memory_order_relaxed);
  while (ns > seen && !max_publish_ns_.compare_exchange_weak(
                          seen, ns, std::memory_order_relaxed)) {
  }

  // Persistence rides after the readers are already on the new epoch: a
  // slow or broken disk delays the next checkpoint, never a publish.
  if (checkpoint_ != nullptr) {
    checkpoint_->on_publish(snap);
    const CheckpointWriter::Stats& cs = checkpoint_->stats();
    checkpoints_written_.store(cs.checkpoints, std::memory_order_relaxed);
    checkpoint_bytes_written_.store(cs.bytes_written,
                                    std::memory_order_relaxed);
    journal_patches_.store(cs.patches, std::memory_order_relaxed);
    journal_compactions_.store(cs.compactions, std::memory_order_relaxed);
  }
  {
    // Notify under the queue mutex so a waiter cannot check the publish
    // count and block between our publish and our notify.
    util::MutexLock lock(queue_mutex_);
  }
  publish_cv_.notify_all();
}

// --- read side -------------------------------------------------------------

namespace {

/// One raw-convention read (the single-read conveniences) against the
/// newest snapshot, accounted as a batch of one.
template <typename Read>
auto read_one(const ShardedSnapshotStore& store, const ReadPath& reads,
              Read read) {
  const auto start = ReadPath::Clock::now();
  const std::shared_ptr<const RouteSnapshot> snap = store.newest();
  const std::uint64_t age_ns =
      util::age_from(snap->published_at_ns(), util::wall_clock_ns());
  auto value = read(*snap);
  reads.record(1, age_ns, start);
  return value;
}

}  // namespace

std::vector<Reply> RouteService::query(std::span<const Request> batch) const {
  return reads_.query(&store_, batch);
}

Cost RouteService::price(NodeId k, NodeId i, NodeId j) const {
  return read_one(store_, reads_,
                  [&](const RouteSnapshot& s) { return s.price(k, i, j); });
}

Cost RouteService::cost(NodeId i, NodeId j) const {
  return read_one(store_, reads_,
                  [&](const RouteSnapshot& s) { return s.cost(i, j); });
}

graph::Path RouteService::path(NodeId i, NodeId j) const {
  return read_one(store_, reads_,
                  [&](const RouteSnapshot& s) { return s.path(i, j); });
}

Cost::rep RouteService::payment(NodeId k) const {
  return read_one(store_, reads_,
                  [&](const RouteSnapshot& s) { return s.payment_total(k); });
}

RouteService::Counters RouteService::counters() const {
  Counters c;
  reads_.fill(c);
  c.publishes = store_.publish_count();
  c.deltas_applied = deltas_applied_.load(std::memory_order_relaxed);
  c.deltas_coalesced = deltas_coalesced_.load(std::memory_order_relaxed);
  c.charges = charges_.load(std::memory_order_relaxed);
  c.rows_rebuilt = rows_rebuilt_.load(std::memory_order_relaxed);
  c.rows_reused = rows_reused_.load(std::memory_order_relaxed);
  c.shards_republished = shards_republished_.load(std::memory_order_relaxed);
  c.full_rebuilds = full_rebuilds_.load(std::memory_order_relaxed);
  c.publish_total_ns = publish_total_ns_.load(std::memory_order_relaxed);
  c.max_publish_ns = max_publish_ns_.load(std::memory_order_relaxed);
  c.checkpoints_written = checkpoints_written_.load(std::memory_order_relaxed);
  c.checkpoint_bytes_written =
      checkpoint_bytes_written_.load(std::memory_order_relaxed);
  c.journal_patches = journal_patches_.load(std::memory_order_relaxed);
  c.journal_compactions =
      journal_compactions_.load(std::memory_order_relaxed);
  return c;
}

util::Table RouteService::counters_table() const {
  const Counters c = counters();
  util::Table t({"counter", "value"});
  t.add("queries answered", c.queries);
  t.add("query batches", c.batches);
  t.add("mean batch latency (ns)",
        c.batches == 0 ? 0 : c.total_ns / c.batches);
  t.add("max batch latency (ns)", c.max_batch_ns);
  t.add("max served staleness (ns)", c.max_staleness_ns);
  t.add("snapshots published", c.publishes);
  t.add("deltas applied", c.deltas_applied);
  t.add("deltas coalesced", c.deltas_coalesced);
  t.add("traffic charges recorded", c.charges);
  t.add("snapshot rows rebuilt", c.rows_rebuilt);
  t.add("snapshot rows reused", c.rows_reused);
  t.add("shards republished", c.shards_republished);
  t.add("full-rebuild fallbacks", c.full_rebuilds);
  t.add("mean publish latency (ns)",
        c.publishes == 0 ? 0 : c.publish_total_ns / c.publishes);
  t.add("max publish latency (ns)", c.max_publish_ns);
  t.add("checkpoints written", c.checkpoints_written);
  t.add("checkpoint bytes written", c.checkpoint_bytes_written);
  t.add("journal patches", c.journal_patches);
  t.add("journal compactions", c.journal_compactions);
  return t;
}

// --- traffic accounting ----------------------------------------------------

void RouteService::charge(NodeId i, NodeId j, std::uint64_t packets) {
  const std::shared_ptr<const RouteSnapshot> snap = snapshot();
  const graph::Path p = snap->path(i, j);
  if (p.size() < 2) return;  // self-traffic or currently unreachable
  // A monopoly transit node has an undefined (infinite) price; such a pair
  // cannot be settled in exact arithmetic, so it is not charged.
  if (snap->pair_payment(i, j).is_infinite()) return;
  {
    util::MutexLock lock(ledger_mutex_);
    ledger_.record_packets(p, snap->price_fn(), packets);
  }
  charges_.fetch_add(1, std::memory_order_relaxed);
}

void RouteService::settle() {
  util::MutexLock lock(ledger_mutex_);
  ledger_.settle();
}

// --- update side -----------------------------------------------------------

std::size_t RouteService::submit(Delta delta) {
  return submit(std::vector<Delta>{delta});
}

std::size_t RouteService::submit(const std::vector<Delta>& deltas) {
  std::vector<Delta> accepted;
  accepted.reserve(deltas.size());
  for (const Delta& delta : deltas)
    if (delta_in_range(delta)) accepted.push_back(delta);
  if (accepted.empty()) return 0;
  {
    util::MutexLock lock(queue_mutex_);
    queue_.insert(queue_.end(), accepted.begin(), accepted.end());
  }
  queue_cv_.notify_one();
  return accepted.size();
}

SubmitAck RouteService::submit_deltas(std::span<const Delta> deltas) {
  SubmitAck ack;
  ack.accepted = submit(std::vector<Delta>(deltas.begin(), deltas.end()));
  if (ack.accepted > 0) drain();
  ack.publish_count = publish_count();
  return ack;
}

void RouteService::wait_for_publishes(std::uint64_t count) const {
  util::MutexLock lock(queue_mutex_);
  while (store_.publish_count() < count) publish_cv_.wait(lock);
}

std::uint64_t RouteService::wait_for_publish_beyond(std::uint64_t count,
                                                    int timeout_ms) const {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  util::MutexLock lock(queue_mutex_);
  while (store_.publish_count() <= count)
    if (publish_cv_.wait_until(lock, deadline) == std::cv_status::timeout)
      break;
  return store_.publish_count();
}

std::uint64_t RouteService::drain() {
  util::MutexLock lock(queue_mutex_);
  while (!queue_.empty() || updater_busy_) publish_cv_.wait(lock);
  return store_.version();
}

}  // namespace fpss::service

#include "service/service.h"

#include <chrono>
#include <map>
#include <optional>
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
      session_(g, pricing::Protocol::kPriceVector, config.engine),
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
      session_(g, pricing::Protocol::kPriceVector, config.engine),
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
  // The warm snapshot is served as is and becomes the first export's base:
  // that export re-extracts every row (no dirty set reaches back to a disk
  // image) and keeps the loaded block wherever the digests match.
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
    counters_.add(&Counters::deltas_applied, batch.size());
    // Each burst costs one reconvergence + publish; everything beyond the
    // applied events rode along for free.
    const std::size_t effective = applied == 0 ? 1 : applied;
    if (batch.size() > effective)
      counters_.add(&Counters::deltas_coalesced, batch.size() - effective);
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
    const bgp::RunStats stats = session_.apply_events(
        events, pricing::RestartPolicy::kRestartBarrier);
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

  // The export's base is whatever the store serves: the warm snapshot
  // before the first export, the previous export after it. A dirty set
  // exists only since an export of this session.
  std::optional<std::vector<NodeId>> dirty;
  if (exported_) dirty = session_.dirty_destinations(last_export_epoch_);

  SnapshotExportStats stats;
  std::shared_ptr<const RouteSnapshot> snap;
  std::size_t stamped = 0;
  {
    util::MutexLock lock(ledger_mutex_);
    snap = RouteSnapshot::from_session(session_, version, store_.newest(),
                                       dirty, &ledger_, pool, &stats);
    stamped = store_.publish(snap);
  }
  counters_.add(&Counters::rows_rebuilt, stats.rows_rebuilt);
  counters_.add(&Counters::rows_reused, stats.rows_reused);
  counters_.add(&Counters::shards_republished, stamped);
  // A full re-extraction is a fallback only once this session has a CoW
  // base of its own; the warm start's first export is not counted.
  if (exported_ && stats.full_rebuild) counters_.add(&Counters::full_rebuilds);
  exported_ = true;
  last_export_epoch_ = epoch;
  const std::uint64_t ns = elapsed_ns(start);
  counters_.add(&Counters::publish_total_ns, ns);
  counters_.raise(&Counters::max_publish_ns, ns);

  // Persistence rides after the readers are already on the new epoch: a
  // slow or broken disk delays the next checkpoint, never a publish.
  if (checkpoint_ != nullptr) {
    checkpoint_->on_publish(snap);
    const CheckpointWriter::Stats& cs = checkpoint_->stats();
    counters_.set(&Counters::checkpoints_written, cs.checkpoints);
    counters_.set(&Counters::checkpoint_bytes_written, cs.bytes_written);
    counters_.set(&Counters::journal_patches, cs.patches);
    counters_.set(&Counters::journal_compactions, cs.compactions);
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
auto read_one(const ShardedSnapshotStore& store,
              util::LiveCounters<Counters>& counters, Read read) {
  const auto start = std::chrono::steady_clock::now();
  const std::shared_ptr<const RouteSnapshot> snap = store.newest();
  const std::uint64_t age_ns =
      util::age_from(snap->published_at_ns(), util::wall_clock_ns());
  auto value = read(*snap);
  record_batch(counters, 1, age_ns, start);
  return value;
}

}  // namespace

std::vector<Reply> RouteService::query(std::span<const Request> batch) const {
  return answer_batch(&store_, batch, counters_);
}

Cost RouteService::price(NodeId k, NodeId i, NodeId j) const {
  return read_one(store_, counters_,
                  [&](const RouteSnapshot& s) { return s.price(k, i, j); });
}

Cost RouteService::cost(NodeId i, NodeId j) const {
  return read_one(store_, counters_,
                  [&](const RouteSnapshot& s) { return s.cost(i, j); });
}

graph::Path RouteService::path(NodeId i, NodeId j) const {
  return read_one(store_, counters_,
                  [&](const RouteSnapshot& s) { return s.path(i, j); });
}

Cost::rep RouteService::payment(NodeId k) const {
  return read_one(store_, counters_,
                  [&](const RouteSnapshot& s) { return s.payment_total(k); });
}

RouteService::Counters RouteService::counters() const {
  Counters c = counters_.read();
  c.publishes = store_.publish_count();
  return c;
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
  counters_.add(&Counters::charges);
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

#include "pricing/session.h"

#include "bgp/rib.h"
#include "util/binio.h"
#include "util/checksum.h"
#include "util/contract.h"
#include "util/thread_pool.h"

namespace fpss::pricing {

bgp::AgentFactory make_agent_factory(Protocol protocol,
                                     bgp::UpdatePolicy policy) {
  return [protocol, policy](NodeId self, std::size_t node_count,
                            Cost declared_cost) -> std::unique_ptr<bgp::Agent> {
    if (protocol == Protocol::kPriceVector) {
      return std::make_unique<PriceVectorAgent>(self, node_count,
                                                declared_cost, policy);
    }
    return std::make_unique<AvoidanceVectorAgent>(self, node_count,
                                                  declared_cost, policy);
  };
}

Session::Session(const graph::Graph& g, Protocol protocol,
                 bgp::UpdatePolicy policy, unsigned threads)
    : Session(g, protocol, bgp::EngineConfig::stage(threads), policy) {}

Session::Session(const graph::Graph& g, Protocol protocol,
                 const bgp::EngineConfig& config, bgp::UpdatePolicy policy)
    : network_(std::make_unique<bgp::Network>(
          g, make_agent_factory(protocol, policy))),
      engine_(std::make_unique<bgp::Engine>(*network_, config)),
      protocol_(protocol) {}

Session::Session(const graph::Graph& g, const bgp::AgentFactory& factory,
                 unsigned threads)
    : Session(g, factory, bgp::EngineConfig::stage(threads)) {}

Session::Session(const graph::Graph& g, const bgp::AgentFactory& factory,
                 const bgp::EngineConfig& config)
    : network_(std::make_unique<bgp::Network>(g, factory)),
      engine_(std::make_unique<bgp::Engine>(*network_, config)) {}

bgp::RunStats Session::run() {
  const bgp::RunStats stats = engine_->run();
  note_converged();
  return stats;
}

const PricingAgent& Session::agent(NodeId v) const {
  return static_cast<const PricingAgent&>(network_->agent(v));
}

PricingAgent& Session::agent(NodeId v) {
  return static_cast<PricingAgent&>(network_->agent(v));
}

bool Session::complete() const {
  for (NodeId v = 0; v < network_->node_count(); ++v)
    if (!agent(v).prices_complete()) return false;
  return true;
}

bgp::RunStats Session::reconverge(RestartPolicy policy) {
  // Price-vector estimates are deltas against the pre-event route state;
  // only the route-independent avoidance values may skip the restart.
  FPSS_EXPECTS(policy == RestartPolicy::kRestartBarrier ||
               protocol_ != Protocol::kPriceVector);
  // Drive the engine directly (not Session::run): dirty tracking must
  // fingerprint only the *final* converged state of the whole
  // reconvergence. Between the two barrier runs every price is back at
  // +infinity — fingerprinting there would mark every sink tree dirty.
  bgp::RunStats stats = engine_->run();  // routes (and prices) reconverge
  if (policy == RestartPolicy::kRestartBarrier) {
    // Paper semantics: price computation starts over on the settled routes.
    for (NodeId v = 0; v < network_->node_count(); ++v)
      agent(v).restart_values();
    const bgp::RunStats wave = engine_->run();
    stats.stages += wave.stages;
    stats.messages += wave.messages;
    stats.traffic += wave.traffic;
    stats.lost_messages += wave.lost_messages;
    stats.last_route_change_stage = wave.last_route_change_stage;
    stats.last_value_change_stage = wave.last_value_change_stage;
    stats.last_route_change_time = wave.last_route_change_time;
    stats.last_value_change_time = wave.last_value_change_time;
    stats.end_time = wave.end_time;
    stats.converged = wave.converged;
  }
  note_converged();
  return stats;
}

void Session::track_dirty_destinations(bool enable) {
  track_dirty_ = enable;
  fps_.clear();
  records_.clear();
  // Baseline off the current converged state (if there is one) so the next
  // event burst diffs against it instead of reporting everything dirty.
  if (enable && engine_->stats().converged) note_converged();
}

namespace {

/// Folds i's exported route toward j into j's fingerprint: the selected
/// path nodes, route cost, and p^k_ij for each path intermediate k (an
/// invalid route folds a sentinel).
void fold_route(util::Fnv1a64& fnv, const PricingAgent& a, NodeId j) {
  const bgp::SelectedRoute& route = a.selected(j);
  if (!route.valid()) {
    fnv.u32(kInvalidNode);
    return;
  }
  fnv.u64(route.path.size());
  for (NodeId v : route.path) fnv.u32(v);
  fnv.i64(util::encode_cost(route.cost));
  for (std::size_t h = 1; h + 1 < route.path.size(); ++h)
    fnv.i64(util::encode_cost(a.price(j, route.path[h])));
}

}  // namespace

void Session::note_converged() {
  if (!track_dirty_) return;
  if (!engine_->stats().converged) {
    // The run hit a cap: the state is mid-flight and converged_epochs did
    // not advance, so the fingerprints no longer describe what they claim.
    // Drop them — the next converged run re-baselines (everything dirty).
    fps_.clear();
    records_.clear();
    return;
  }
  const std::size_t n = network_->node_count();
  const std::uint64_t epoch = engine_->converged_epochs();
  // Destination j's fingerprint folds every source's route toward j in
  // source order. The walk is agent-major: each stripe of destinations
  // keeps one running hash per destination and visits every agent once,
  // reading that agent's routes to the stripe in one pass over its table.
  // Each hash still takes the same bytes in the same order.
  std::vector<util::Fnv1a64> folds(n);
  util::ThreadPool::stripes(
      engine_->pool(), n, [&](std::size_t first, std::size_t last) {
        for (NodeId i = 0; i < n; ++i) {
          const PricingAgent& a = agent(i);
          for (std::size_t j = first; j < last; ++j)
            if (j != i) fold_route(folds[j], a, static_cast<NodeId>(j));
        }
      });
  std::vector<std::uint64_t> fresh(n);
  for (std::size_t j = 0; j < n; ++j) fresh[j] = folds[j].digest();

  DirtyRecord record;
  record.to_epoch = epoch;
  if (fps_.size() == n) {
    record.from_epoch = fp_epoch_;
    for (NodeId j = 0; j < n; ++j)
      if (fresh[j] != fps_[j]) record.destinations.push_back(j);
  } else {
    // First converged state since tracking (re)started: no baseline to
    // diff against. from_epoch 0 + everything dirty is a valid superset
    // for any earlier epoch a caller might ask about.
    record.from_epoch = 0;
    record.destinations.resize(n);
    for (NodeId j = 0; j < n; ++j) record.destinations[j] = j;
  }
  records_.push_back(std::move(record));
  if (records_.size() > kDirtyWindow)
    records_.erase(records_.begin(),
                   records_.end() - static_cast<std::ptrdiff_t>(kDirtyWindow));
  fps_ = std::move(fresh);
  fp_epoch_ = epoch;
}

std::optional<std::vector<NodeId>> Session::dirty_destinations(
    std::uint64_t since_epoch) const {
  if (!track_dirty_) return std::nullopt;
  const std::size_t n = network_->node_count();
  if (fps_.size() != n) return std::nullopt;  // no converged baseline
  // Someone drove engine().run() directly since the last fingerprinting:
  // the fingerprints lag the state and a diff would under-report.
  if (fp_epoch_ != engine_->converged_epochs()) return std::nullopt;
  if (since_epoch > fp_epoch_) return std::nullopt;  // future epoch
  std::vector<bool> dirty(n, false);
  std::uint64_t covered = fp_epoch_;
  for (auto it = records_.rbegin();
       it != records_.rend() && covered > since_epoch; ++it) {
    if (it->to_epoch != covered) return std::nullopt;  // broken chain
    for (NodeId j : it->destinations) dirty[j] = true;
    covered = it->from_epoch;
  }
  if (covered > since_epoch) return std::nullopt;  // window trimmed
  std::vector<NodeId> out;
  for (NodeId j = 0; j < n; ++j)
    if (dirty[j]) out.push_back(j);
  return out;
}

bgp::RunStats Session::change_cost(NodeId v, Cost new_cost,
                                   RestartPolicy policy) {
  network_->change_cost(v, new_cost);
  return reconverge(policy);
}

bgp::RunStats Session::add_link(NodeId u, NodeId v, RestartPolicy policy) {
  network_->add_link(u, v);
  return reconverge(policy);
}

bgp::RunStats Session::remove_link(NodeId u, NodeId v, RestartPolicy policy) {
  network_->remove_link(u, v);
  return reconverge(policy);
}

bgp::RunStats Session::apply_events(std::span<const Event> events,
                                    RestartPolicy policy) {
  for (const Event& event : events) {
    switch (event.kind) {
      case Event::Kind::kCostChange:
        network_->change_cost(event.u, event.cost);
        break;
      case Event::Kind::kAddLink:
        network_->add_link(event.u, event.v);
        break;
      case Event::Kind::kRemoveLink:
        network_->remove_link(event.u, event.v);
        break;
    }
  }
  return reconverge(policy);
}

Session::NodeFailure Session::fail_node(NodeId v, RestartPolicy policy) {
  NodeFailure failure;
  const auto neighbors = network_->topology().neighbors(v);
  failure.links.reserve(neighbors.size());
  for (NodeId u : std::vector<NodeId>(neighbors.begin(), neighbors.end())) {
    network_->remove_link(v, u);
    failure.links.emplace_back(v, u);
  }
  failure.stats = reconverge(policy);
  return failure;
}

bgp::RunStats Session::restore_node(
    const std::vector<std::pair<NodeId, NodeId>>& links,
    RestartPolicy policy) {
  for (const auto& [u, v] : links) network_->add_link(u, v);
  return reconverge(policy);
}

}  // namespace fpss::pricing

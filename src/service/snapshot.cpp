#include "service/snapshot.h"

#include <numeric>

#include "bgp/rib.h"
#include "graph/graph.h"
#include "pricing/pricing_agent.h"
#include "pricing/session.h"
#include "util/binio.h"
#include "util/checksum.h"
#include "util/clock.h"
#include "util/contract.h"
#include "util/thread_pool.h"

namespace fpss::service {

// Costs are checksummed as int64 via util::encode_cost: -1 encodes
// +infinity (finite costs are non-negative by construction).
using util::encode_cost;

std::uint64_t RouteSnapshot::DestinationBlock::compute_digest() const {
  util::Fnv1a64 fnv;
  for (NodeId v : next_hop) fnv.u32(v);
  for (Cost c : cost) fnv.i64(encode_cost(c));
  for (std::uint64_t o : offset) fnv.u64(o);
  for (NodeId v : transit) fnv.u32(v);
  for (Cost c : price) fnv.i64(encode_cost(c));
  return fnv.digest();
}

std::vector<RouteSnapshot::BlockPtr> RouteSnapshot::extract_destinations(
    const pricing::Session& session, std::span<const NodeId> destinations,
    std::size_t n) {
  std::vector<std::shared_ptr<DestinationBlock>> blocks(destinations.size());
  for (auto& block : blocks) {
    block = std::make_shared<DestinationBlock>();
    block->next_hop.assign(n, kInvalidNode);
    block->cost.assign(n, Cost::infinity());
    block->offset.reserve(n + 1);
    block->offset.push_back(0);
  }
  // Agent-major: every block grows by one source at a time, in source
  // order, so it ends up with the arrays a column-wise walk would build,
  // while each agent's routes to all of `destinations` are read in one pass
  // over its table.
  for (NodeId i = 0; i < n; ++i) {
    const pricing::PricingAgent& agent = session.agent(i);
    for (std::size_t t = 0; t < destinations.size(); ++t) {
      const NodeId j = destinations[t];
      DestinationBlock& block = *blocks[t];
      if (i == j) {
        block.cost[i] = Cost::zero();
      } else if (const bgp::SelectedRoute& route = agent.selected(j);
                 route.valid()) {
        block.cost[i] = route.cost;
        block.next_hop[i] = route.next_hop;
        // The row holds the path intermediates in order; p^k_ij for each.
        for (std::size_t h = 1; h + 1 < route.path.size(); ++h) {
          const NodeId k = route.path[h];
          block.transit.push_back(k);
          block.price.push_back(agent.price(j, k));
        }
      }
      block.offset.push_back(block.transit.size());
    }
  }
  std::vector<BlockPtr> out(blocks.size());
  for (std::size_t t = 0; t < blocks.size(); ++t) {
    blocks[t]->digest = blocks[t]->compute_digest();
    out[t] = std::move(blocks[t]);
  }
  return out;
}

void RouteSnapshot::seal() {
  total_entries_ = 0;
  for (const BlockPtr& block : blocks_) total_entries_ += block->transit.size();
  checksum_ = compute_checksum();
}

std::shared_ptr<const RouteSnapshot> RouteSnapshot::from_session(
    const pricing::Session& session, std::uint64_t version,
    const std::shared_ptr<const RouteSnapshot>& base,
    const std::optional<std::vector<NodeId>>& dirty,
    const payments::Ledger* ledger, util::ThreadPool* pool,
    SnapshotExportStats* stats) {
  FPSS_EXPECTS(session.engine().stats().converged);
  const graph::Graph& g = session.network().topology();
  const std::size_t n = g.node_count();
  // A base of another node count has no block to lend for any row.
  const RouteSnapshot* prior =
      base != nullptr && base->n_ == n ? base.get() : nullptr;
  // Rows outside `dirty` may be shared unexamined only when base describes
  // this topology generation; across a graph rewrite the dirty set is not
  // trusted and every row is re-extracted.
  const bool incremental = prior != nullptr && dirty.has_value() &&
                           prior->graph_version_ == g.version();

  auto snap = std::shared_ptr<RouteSnapshot>(new RouteSnapshot);
  snap->n_ = n;
  snap->version_ = version;
  snap->graph_version_ = g.version();
  snap->published_at_ns_ = util::wall_clock_ns();
  snap->node_cost_.reserve(n);
  for (NodeId v = 0; v < n; ++v) snap->node_cost_.push_back(g.cost(v));

  std::vector<NodeId> rebuild;
  if (incremental) {
    snap->blocks_ = prior->blocks_;  // share everything, then overwrite dirty
    // Dedup defensively (a union of per-epoch dirty sets may repeat ids) so
    // the parallel loop owns each slot exactly once.
    rebuild.reserve(dirty->size());
    std::vector<bool> seen(n, false);
    for (const NodeId j : *dirty) {
      FPSS_EXPECTS(j < n);
      if (!seen[j]) {
        seen[j] = true;
        rebuild.push_back(j);
      }
    }
  } else {
    snap->blocks_.resize(n);
    rebuild.resize(n);
    std::iota(rebuild.begin(), rebuild.end(), NodeId{0});
  }
  // One stripe of the rebuild list per pool worker.
  util::ThreadPool::stripes(
      pool, rebuild.size(), [&](std::size_t first, std::size_t last) {
        const std::span<const NodeId> stripe(rebuild.data() + first,
                                             last - first);
        std::vector<BlockPtr> blocks = extract_destinations(session, stripe, n);
        for (std::size_t t = 0; t < stripe.size(); ++t) {
          const NodeId j = stripe[t];
          // The one sharing rule: equal digest means equal row, so keep
          // base's block and the store sees this destination unchanged.
          if (prior != nullptr &&
              prior->blocks_[j]->digest == blocks[t]->digest)
            blocks[t] = prior->blocks_[j];
          snap->blocks_[j] = std::move(blocks[t]);
        }
      });
  if (ledger != nullptr) {
    FPSS_EXPECTS(ledger->node_count() == n);
    snap->owed_ = ledger->owed_all();
    snap->settled_ = ledger->settled_all();
  } else {
    snap->owed_.assign(n, 0);
    snap->settled_.assign(n, 0);
  }
  snap->seal();

  if (stats != nullptr) {
    stats->rows_rebuilt = rebuild.size();
    stats->rows_reused = n - rebuild.size();
    stats->full_rebuild = base != nullptr && !incremental;
  }
  return snap;
}

graph::Path RouteSnapshot::path(NodeId i, NodeId j) const {
  graph::Path p;
  if (i == j) return {i};
  if (!reachable(i, j)) return p;
  const DestinationBlock& block = *blocks_[j];
  p.reserve(block.offset[i + 1] - block.offset[i] + 2);
  p.push_back(i);
  for (std::uint64_t e = block.offset[i]; e < block.offset[i + 1]; ++e)
    p.push_back(block.transit[e]);
  p.push_back(j);
  return p;
}

Cost RouteSnapshot::price(NodeId k, NodeId i, NodeId j) const {
  if (i == j) return Cost::zero();
  const DestinationBlock& block = *blocks_[j];
  for (std::uint64_t e = block.offset[i]; e < block.offset[i + 1]; ++e)
    if (block.transit[e] == k) return block.price[e];
  return Cost::zero();
}

Cost RouteSnapshot::pair_payment(NodeId i, NodeId j) const {
  Cost total = Cost::zero();
  if (i == j) return total;
  const DestinationBlock& block = *blocks_[j];
  for (std::uint64_t e = block.offset[i]; e < block.offset[i + 1]; ++e)
    total += block.price[e];
  return total;
}

payments::PriceFn RouteSnapshot::price_fn() const {
  return [this](NodeId k, NodeId i, NodeId j) { return price(k, i, j); };
}

std::uint64_t RouteSnapshot::compute_checksum() const {
  util::Fnv1a64 fnv;
  fnv.u64(n_);
  fnv.u64(version_);
  fnv.u64(graph_version_);
  fnv.u64(published_at_ns_);
  fnv.u64(total_entries_);
  for (Cost c : node_cost_) fnv.i64(encode_cost(c));
  // One word per destination: reused blocks cost O(1) here, which is what
  // keeps incremental export time proportional to the dirty set.
  for (const BlockPtr& block : blocks_) fnv.u64(block->digest);
  for (Cost::rep r : owed_) fnv.i64(r);
  for (Cost::rep r : settled_) fnv.i64(r);
  return fnv.digest();
}

std::uint64_t RouteSnapshot::content_checksum() const {
  util::Fnv1a64 fnv;
  fnv.u64(n_);
  fnv.u64(graph_version_);
  fnv.u64(total_entries_);
  for (Cost c : node_cost_) fnv.i64(encode_cost(c));
  for (const BlockPtr& block : blocks_) fnv.u64(block->digest);
  for (Cost::rep r : owed_) fnv.i64(r);
  for (Cost::rep r : settled_) fnv.i64(r);
  return fnv.digest();
}

bool RouteSnapshot::self_check() const {
  if (checksum_ != compute_checksum()) return false;
  if (node_cost_.size() != n_ || blocks_.size() != n_ || owed_.size() != n_ ||
      settled_.size() != n_)
    return false;
  std::uint64_t entries = 0;
  for (NodeId j = 0; j < n_; ++j) {
    if (blocks_[j] == nullptr) return false;
    const DestinationBlock& block = *blocks_[j];
    if (block.next_hop.size() != n_ || block.cost.size() != n_ ||
        block.offset.size() != n_ + 1 ||
        block.transit.size() != block.price.size())
      return false;
    if (block.offset.front() != 0 ||
        block.offset.back() != block.transit.size())
      return false;
    if (block.digest != block.compute_digest()) return false;
    entries += block.transit.size();
    for (NodeId i = 0; i < n_; ++i) {
      const std::uint64_t begin = block.offset[i];
      const std::uint64_t end = block.offset[i + 1];
      if (begin > end) return false;
      if (i == j) {
        if (begin != end || block.cost[i] != Cost::zero()) return false;
        continue;
      }
      if (block.cost[i].is_infinite()) {
        if (begin != end || block.next_hop[i] != kInvalidNode) return false;
        continue;
      }
      // c(i,j) is by definition the sum of the declared costs of the path
      // intermediates — the row must reproduce it, and the stored next hop
      // must be the first node after i on that path.
      Cost row_cost = Cost::zero();
      for (std::uint64_t e = begin; e < end; ++e) {
        if (block.transit[e] >= n_) return false;
        row_cost += node_cost_[block.transit[e]];
      }
      if (row_cost != block.cost[i]) return false;
      const NodeId hop = begin < end ? block.transit[begin] : j;
      if (block.next_hop[i] != hop) return false;
    }
  }
  return entries == total_entries_;
}

}  // namespace fpss::service

#include "audit/audit.h"

#include <algorithm>
#include <optional>
#include <span>
#include <sstream>

#include "util/contract.h"

namespace fpss::audit {

const char* to_string(ViolationKind kind) {
  switch (kind) {
    case ViolationKind::kCostSumMismatch: return "cost-sum-mismatch";
    case ViolationKind::kNodeCostDisagreement: return "node-cost-disagreement";
    case ViolationKind::kPriceBelowCost: return "price-below-cost";
    case ViolationKind::kPriceAboveBound: return "price-above-bound";
  }
  return "?";
}

namespace {

using bgp::RouteAdvert;
using bgp::SelectedRoute;

/// Declared cost of `node` according to a path+node_costs pair, or
/// infinity if the node is not on the path.
Cost cost_on_path(std::span<const NodeId> path, std::span<const Cost> costs,
                  NodeId node) {
  for (std::size_t t = 0; t < path.size(); ++t)
    if (path[t] == node) return costs[t];
  return Cost::infinity();
}

}  // namespace

std::vector<Violation> audit_network(const pricing::Session& session) {
  std::vector<Violation> violations;
  const std::size_t n = session.network().node_count();

  auto flag = [&violations](NodeId observer, NodeId suspect, NodeId dest,
                            NodeId transit, ViolationKind kind,
                            std::string detail) {
    violations.push_back(
        {observer, suspect, dest, transit, kind, std::move(detail)});
  };

  for (NodeId i = 0; i < n; ++i) {
    const pricing::PricingAgent& me = session.agent(i);
    const Cost c_i = session.network().topology().cost(i);
    for (NodeId a : me.heard_neighbors()) {
      for (NodeId j = 0; j < n; ++j) {
        const std::optional<RouteAdvert> advert = me.stored_advert(a, j);
        if (!advert.has_value()) continue;

        // (A) The path cost must equal the sum of the advertised transit
        // node costs — every recipient can re-add it.
        Cost transit_sum = Cost::zero();
        for (std::size_t t = 1; t + 1 < advert->path.size(); ++t)
          transit_sum += advert->node_costs[t];
        if (transit_sum != advert->cost) {
          std::ostringstream os;
          os << "advertised cost " << advert->cost.to_string()
             << " but transit costs sum to " << transit_sum.to_string();
          flag(i, a, j, kInvalidNode, ViolationKind::kCostSumMismatch,
               os.str());
        }

        // (A') Per-node costs must agree with what the auditor's own
        // selected path reports for shared nodes.
        const SelectedRoute& mine = me.selected(j);
        if (mine.valid()) {
          for (std::size_t t = 1; t + 1 < advert->path.size(); ++t) {
            const NodeId shared = advert->path[t];
            const Cost my_view =
                cost_on_path(mine.path, mine.node_costs, shared);
            if (my_view.is_finite() && my_view != advert->node_costs[t]) {
              std::ostringstream os;
              os << "AS" << shared << " costs " << my_view.to_string()
                 << " on my path but " << advert->node_costs[t].to_string()
                 << " in the advert";
              flag(i, a, j, shared, ViolationKind::kNodeCostDisagreement,
                   os.str());
            }
          }
        }

        // Price checks per advertised transit value still in force.
        for (const auto& [k, price] : advert->transit_values) {
          if (price.is_infinite()) continue;  // still unknown: no claim made

          // (B) Theorem 1 floor: p^k >= c_k.
          const Cost c_k = cost_on_path(advert->path, advert->node_costs, k);
          if (c_k.is_finite() && price < c_k) {
            std::ostringstream os;
            os << "p^" << k << " = " << price.to_string()
               << " below declared cost " << c_k.to_string();
            flag(i, a, j, k, ViolationKind::kPriceBelowCost, os.str());
          }

          // (C) The neighbor bound: the suspect's minimum includes the
          // candidate our own state offers, so it cannot honestly exceed
          // it. Not applicable when we are the avoided node ourselves or
          // have no route.
          if (!mine.valid() || k == i || c_k.is_infinite()) continue;
          const Cost my_price = me.price(j, k);  // zero if k off our path
          Cost::rep bound;
          if (graph::is_transit_node(mine.path, k)) {
            if (my_price.is_infinite()) continue;  // we know no bound yet
            bound = my_price.value() + c_i.value() + (mine.cost - advert->cost);
          } else {
            // Our whole route avoids k: a can reach j k-avoidingly via us.
            bound = c_k.value() + c_i.value() + (mine.cost - advert->cost);
          }
          if (bound >= 0 && price.value() > bound) {
            std::ostringstream os;
            os << "p^" << k << " = " << price.to_string()
               << " exceeds the bound " << bound
               << " derived from the auditor's own state";
            flag(i, a, j, k, ViolationKind::kPriceAboveBound, os.str());
          }
        }
      }
    }
  }
  return violations;
}

std::vector<NodeId> suspects(const std::vector<Violation>& violations) {
  std::vector<NodeId> out;
  for (const Violation& v : violations) out.push_back(v.suspect);
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

}  // namespace fpss::audit

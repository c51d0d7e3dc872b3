#include "policy/policy_agent.h"

#include <algorithm>
#include <optional>

#include "routing/route.h"
#include "util/contract.h"

namespace fpss::policy {

namespace {

/// Preference rank of a relation class: customers first.
int class_rank(Relation relation) {
  switch (relation) {
    case Relation::kCustomer: return 0;
    case Relation::kPeer: return 1;
    case Relation::kProvider: return 2;
  }
  return 3;
}

}  // namespace

PolicyBgpAgent::PolicyBgpAgent(NodeId self, std::size_t node_count,
                               Cost declared_cost, bgp::UpdatePolicy policy,
                               const Relationships* relationships)
    : PlainBgpAgent(self, node_count, declared_cost, policy),
      relationships_(relationships) {
  FPSS_EXPECTS(relationships != nullptr);
}

bool PolicyBgpAgent::reselect_destination(NodeId destination) {
  if (destination == id()) return false;

  int best_class = 3;
  routing::RouteRank best = routing::no_route();
  std::optional<bgp::RouteAdvert> best_advert;
  for (NodeId a : rib().known_neighbors()) {
    const std::optional<bgp::RouteAdvert> advert =
        rib().stored(a, destination);
    if (!advert.has_value()) continue;
    if (std::ranges::find(advert->path, id()) != advert->path.end())
      continue;  // loop prevention
    if (!relationships_->knows(id(), a)) continue;
    const int cls = class_rank(relationships_->rel(id(), a));
    const Cost step =
        (a == destination) ? Cost::zero() : rib().neighbor_cost(a);
    const routing::RouteRank rank{
        advert->cost + step,
        static_cast<std::uint32_t>(advert->path.size()), a};
    if (cls < best_class || (cls == best_class && rank < best)) {
      best_class = cls;
      best = rank;
      best_advert = advert;
    }
  }

  return rib().install(destination, best_advert, best.cost);
}

int PolicyBgpAgent::learned_class(NodeId destination) const {
  const bgp::SelectedRoute& route = rib().selected(destination);
  if (destination == id()) return 0;  // own prefix counts as customer-grade
  if (!route.valid()) return 3;
  return class_rank(relationships_->rel(id(), route.next_hop));
}

bool PolicyBgpAgent::exportable(NodeId destination, NodeId to_neighbor) const {
  if (!relationships_->knows(id(), to_neighbor)) return false;
  // To a customer: everything. To a peer or provider: only our own prefix
  // and customer-learned routes (we are paid to carry those).
  if (relationships_->rel(id(), to_neighbor) == Relation::kCustomer)
    return true;
  return learned_class(destination) == 0;
}

bgp::TableMessage PolicyBgpAgent::export_filter(NodeId neighbor,
                                                const bgp::TableMessage& msg) {
  bgp::TableMessage out(msg.sender(), msg.sender_cost());
  std::set<NodeId>& sent = exported_[neighbor];
  for (std::size_t e = 0; e < msg.size(); ++e) {
    const bgp::RouteAdvert advert = msg.entry(e);
    const NodeId j = advert.destination;
    const bool can_export = !advert.is_withdrawal() && exportable(j, neighbor);
    if (can_export) {
      out.add(advert);
      sent.insert(j);
    } else if (sent.erase(j) > 0) {
      // Previously exported, now forbidden (or withdrawn): withdraw it.
      out.add(bgp::RouteAdvert::withdrawal(j));
    }
  }
  return out;
}

bgp::AgentFactory make_policy_factory(const Relationships* relationships,
                                      bgp::UpdatePolicy policy) {
  return [relationships, policy](
             NodeId self, std::size_t node_count,
             Cost declared_cost) -> std::unique_ptr<bgp::Agent> {
    return std::make_unique<PolicyBgpAgent>(self, node_count, declared_cost,
                                            policy, relationships);
  };
}

}  // namespace fpss::policy

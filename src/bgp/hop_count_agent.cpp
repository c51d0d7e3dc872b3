#include "bgp/hop_count_agent.h"

#include <algorithm>
#include <optional>

namespace fpss::bgp {

bool HopCountBgpAgent::reselect_destination(NodeId destination) {
  if (destination == id()) return false;

  // Rank candidates by (hops, cost, neighbor id) — hops dominate.
  bool have_best = false;
  std::uint32_t best_hops = 0;
  Cost best_cost = Cost::infinity();
  NodeId best_neighbor = kInvalidNode;
  std::optional<RouteAdvert> best_advert;

  for (NodeId a : rib().known_neighbors()) {
    const std::optional<RouteAdvert> advert = rib().stored(a, destination);
    if (!advert.has_value()) continue;
    if (std::ranges::find(advert->path, id()) != advert->path.end()) continue;
    const auto hops = static_cast<std::uint32_t>(advert->path.size());
    const Cost step =
        (a == destination) ? Cost::zero() : rib().neighbor_cost(a);
    const Cost cost = advert->cost + step;
    const bool better =
        !have_best || hops < best_hops ||
        (hops == best_hops &&
         (cost < best_cost || (cost == best_cost && a < best_neighbor)));
    if (better) {
      have_best = true;
      best_hops = hops;
      best_cost = cost;
      best_neighbor = a;
      best_advert = advert;
    }
  }

  return rib().install(destination, best_advert, best_cost);
}

AgentFactory make_hop_count_factory(UpdatePolicy policy) {
  return [policy](NodeId self, std::size_t node_count,
                  Cost declared_cost) -> std::unique_ptr<Agent> {
    return std::make_unique<HopCountBgpAgent>(self, node_count, declared_cost,
                                              policy);
  };
}

}  // namespace fpss::bgp

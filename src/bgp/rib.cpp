#include "bgp/rib.h"

#include <algorithm>

#include "routing/route.h"
#include "util/contract.h"

namespace fpss::bgp {

Rib::Rib(NodeId self, std::size_t node_count, Cost declared_cost)
    : self_(self),
      declared_cost_(declared_cost),
      selected_(node_count),
      neighbors_(node_count) {
  FPSS_EXPECTS(self < node_count);
  FPSS_EXPECTS(declared_cost.is_finite());
  // A router always has the trivial route to itself.
  selected_[self_] = SelectedRoute{{self_}, Cost::zero(), {declared_cost},
                                   kInvalidNode};
}

void Rib::set_declared_cost(Cost c) {
  FPSS_EXPECTS(c.is_finite());
  declared_cost_ = c;
  selected_[self_].node_costs = {c};  // keep the trivial self-route in sync
}

std::uint32_t Rib::hear(NodeId neighbor, Cost cost) {
  Neighbor& nb = neighbors_[neighbor];
  nb.cost = cost;
  if (!nb.heard) {
    nb.heard = true;
    heard_.insert(std::upper_bound(heard_.begin(), heard_.end(), neighbor),
                  neighbor);
    if (nb.slot == kNoSlot) {
      nb.slot = static_cast<std::uint32_t>(rib_in_.size() / node_count());
      rib_in_.resize(rib_in_.size() + node_count());
    }
  }
  return nb.slot;
}

void Rib::ingest(NodeId neighbor, Cost neighbor_cost,
                 std::shared_ptr<const RouteAdvert> advert) {
  FPSS_EXPECTS(neighbor < node_count() && neighbor != self_);
  FPSS_EXPECTS(advert != nullptr && advert->destination < node_count());
  Cell& held = cell(hear(neighbor, neighbor_cost), advert->destination);
  if (advert->is_withdrawal()) {
    held.advert.reset();
    return;
  }
  FPSS_EXPECTS(advert->path.front() == neighbor);
  FPSS_EXPECTS(advert->path.back() == advert->destination);
  FPSS_EXPECTS(advert->node_costs.size() == advert->path.size());
  held.advert = std::move(advert);
  held.values_generation = values_generation_;
}

std::vector<NodeId> Rib::purge_neighbor(NodeId neighbor) {
  std::vector<NodeId> dropped;
  if (!heard_from(neighbor)) return dropped;
  Neighbor& nb = neighbors_[neighbor];
  for (NodeId j = 0; j < node_count(); ++j) {
    Cell& held = cell(nb.slot, j);
    if (held.advert == nullptr) continue;
    held.advert.reset();
    dropped.push_back(j);
  }
  nb.heard = false;
  heard_.erase(std::lower_bound(heard_.begin(), heard_.end(), neighbor));
  return dropped;
}

bool Rib::reselect(NodeId destination) {
  FPSS_EXPECTS(destination < node_count());
  if (destination == self_) return false;

  routing::RouteRank best = routing::no_route();
  const RouteAdvert* best_advert = nullptr;
  for (NodeId neighbor : heard_) {
    const Neighbor& nb = neighbors_[neighbor];
    const RouteAdvert* advert = cell(nb.slot, destination).advert.get();
    if (advert == nullptr) continue;
    // Path-vector loop prevention: never use a route already through us.
    if (std::find(advert->path.begin(), advert->path.end(), self_) !=
        advert->path.end())
      continue;
    const Cost step = (neighbor == destination) ? Cost::zero() : nb.cost;
    const routing::RouteRank rank{
        advert->cost + step, static_cast<std::uint32_t>(advert->path.size()),
        neighbor};
    if (rank < best) {
      best = rank;
      best_advert = advert;
    }
  }
  return install(destination, best_advert, best.cost);
}

bool Rib::install(NodeId destination, const RouteAdvert* winner, Cost cost) {
  FPSS_EXPECTS(destination < node_count() && destination != self_);
  SelectedRoute& current = selected_[destination];
  if (winner == nullptr) {
    // A route-less selection only ever comes from here, so its cost and
    // node costs are already the defaults.
    if (!current.valid()) return false;
    current.path.clear();
    current.cost = Cost::infinity();
    current.node_costs.clear();
    current.next_hop = kInvalidNode;
    return true;
  }
  const graph::Path& tail = winner->path;
  const std::vector<Cost>& tail_costs = winner->node_costs;
  const bool same =
      current.cost == cost && current.path.size() == tail.size() + 1 &&
      current.node_costs.size() == tail_costs.size() + 1 &&
      current.path.front() == self_ &&
      current.node_costs.front() == declared_cost_ &&
      std::equal(tail.begin(), tail.end(), current.path.begin() + 1) &&
      std::equal(tail_costs.begin(), tail_costs.end(),
                 current.node_costs.begin() + 1);
  if (same) return false;
  current.path.assign(1, self_);
  current.path.insert(current.path.end(), tail.begin(), tail.end());
  current.cost = cost;
  current.node_costs.assign(1, declared_cost_);
  current.node_costs.insert(current.node_costs.end(), tail_costs.begin(),
                            tail_costs.end());
  current.next_hop = tail.front();
  return true;
}

const SelectedRoute& Rib::selected(NodeId destination) const {
  FPSS_EXPECTS(destination < node_count());
  return selected_[destination];
}

const Rib::Cell* Rib::find(NodeId neighbor, NodeId destination) const {
  if (neighbor >= node_count() || destination >= node_count()) return nullptr;
  const std::uint32_t slot = neighbors_[neighbor].slot;
  return slot == kNoSlot ? nullptr : &cell(slot, destination);
}

TransitValues Rib::values(const Cell& held) const {
  if (held.advert == nullptr || held.values_generation != values_generation_)
    return {};
  return held.advert->transit_values;
}

const RouteAdvert* Rib::stored(NodeId neighbor, NodeId destination) const {
  const Cell* held = find(neighbor, destination);
  return held == nullptr ? nullptr : held->advert.get();
}

TransitValues Rib::stored_values(NodeId neighbor, NodeId destination) const {
  const Cell* held = find(neighbor, destination);
  return held == nullptr ? TransitValues{} : values(*held);
}

void Rib::note_sender(NodeId neighbor, Cost neighbor_cost) {
  FPSS_EXPECTS(neighbor < node_count() && neighbor != self_);
  FPSS_EXPECTS(neighbor_cost.is_finite());
  hear(neighbor, neighbor_cost);
}

Cost Rib::neighbor_cost(NodeId neighbor) const {
  FPSS_EXPECTS(heard_from(neighbor));
  return neighbors_[neighbor].cost;
}

std::size_t Rib::selected_words() const {
  std::size_t words = 0;
  for (const SelectedRoute& route : selected_) {
    if (!route.valid()) continue;
    words += route.path.size() + route.node_costs.size() + 1;
  }
  return words;
}

std::size_t Rib::adj_rib_in_words() const {
  std::size_t words = 0;
  for (const Cell& held : rib_in_) {
    if (held.advert == nullptr) continue;
    // Retired values count zero, as if the barrier had erased them.
    words += held.advert->path.size() + held.advert->node_costs.size() + 1 +
             2 * values(held).size();
  }
  return words;
}

}  // namespace fpss::bgp

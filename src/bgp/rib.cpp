#include "bgp/rib.h"

#include <algorithm>
#include <span>

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

bool Rib::ingest(const MessageRef& msg, std::size_t e) {
  const NodeId neighbor = msg->sender();
  FPSS_EXPECTS(heard_from(neighbor) && neighbor != self_);
  const Neighbor& nb = neighbors_[neighbor];
  FPSS_EXPECTS(nb.cost == msg->sender_cost());
  const RouteAdvert fresh = msg->entry(e);
  FPSS_EXPECTS(fresh.destination < node_count());
  Cell& held = cell(nb.slot, fresh.destination);
  if (fresh.is_withdrawal()) {
    if (held.message == nullptr) return false;
    held.message.reset();
    return true;
  }
  FPSS_EXPECTS(fresh.path.front() == neighbor);
  FPSS_EXPECTS(fresh.path.back() == fresh.destination);
  bool changed = true;
  if (held.message != nullptr) {
    const RouteAdvert old = held.message->entry(held.entry);
    changed = old.cost != fresh.cost ||
              !std::ranges::equal(old.path, fresh.path) ||
              !std::ranges::equal(old.node_costs, fresh.node_costs);
  }
  held.message = msg;
  held.entry = static_cast<std::uint32_t>(e);
  held.values_generation = values_generation_;
  return changed;
}

void Rib::clear_stored_values() {
  if (++values_generation_ != kRetired) return;
  // The counter wrapped: a cell stamped long ago could match a new
  // generation, so retire every cell by hand and start over.
  for (Cell& held : rib_in_) held.values_generation = kRetired;
  values_generation_ = 0;
}

std::vector<NodeId> Rib::purge_neighbor(NodeId neighbor) {
  std::vector<NodeId> dropped;
  if (!heard_from(neighbor)) return dropped;
  Neighbor& nb = neighbors_[neighbor];
  for (NodeId j = 0; j < node_count(); ++j) {
    Cell& held = cell(nb.slot, j);
    if (held.message == nullptr) continue;
    held.message.reset();
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
  std::optional<RouteAdvert> best_advert;
  for (NodeId neighbor : heard_) {
    const Neighbor& nb = neighbors_[neighbor];
    const Cell& held = cell(nb.slot, destination);
    if (held.message == nullptr) continue;
    const RouteAdvert advert = held.message->entry(held.entry);
    const Cost step = (neighbor == destination) ? Cost::zero() : nb.cost;
    const routing::RouteRank rank{
        advert.cost + step, static_cast<std::uint32_t>(advert.path.size()),
        neighbor};
    // Only a candidate that would win needs the path-vector loop check
    // (never use a route already through us): dropping one that ranks
    // below the best so far cannot change the winner.
    if (!(rank < best)) continue;
    if (std::ranges::find(advert.path, self_) != advert.path.end()) continue;
    best = rank;
    best_advert = advert;
  }
  return install(destination, best_advert, best.cost);
}

bool Rib::install(NodeId destination, const std::optional<RouteAdvert>& winner,
                  Cost cost) {
  FPSS_EXPECTS(destination < node_count() && destination != self_);
  SelectedRoute& current = selected_[destination];
  if (!winner.has_value()) {
    // A route-less selection only ever comes from here, so its cost and
    // node costs are already the defaults.
    if (!current.valid()) return false;
    current.path.clear();
    current.cost = Cost::infinity();
    current.node_costs.clear();
    current.next_hop = kInvalidNode;
    return true;
  }
  const std::span<const NodeId> tail = winner->path;
  const std::span<const Cost> tail_costs = winner->node_costs;
  const bool same =
      current.cost == cost && current.path.size() == tail.size() + 1 &&
      current.node_costs.size() == tail_costs.size() + 1 &&
      current.path.front() == self_ &&
      current.node_costs.front() == declared_cost_ &&
      std::equal(tail.begin(), tail.end(), current.path.begin() + 1) &&
      std::equal(tail_costs.begin(), tail_costs.end(),
                 current.node_costs.begin() + 1);
  if (same) return false;
  // Overwrite in place: this router, then the winner's path.
  current.path.resize(tail.size() + 1);
  current.path[0] = self_;
  std::ranges::copy(tail, current.path.begin() + 1);
  current.cost = cost;
  current.node_costs.resize(tail_costs.size() + 1);
  current.node_costs[0] = declared_cost_;
  std::ranges::copy(tail_costs, current.node_costs.begin() + 1);
  current.next_hop = tail.front();
  return true;
}

const Rib::Cell* Rib::find(NodeId neighbor, NodeId destination) const {
  if (neighbor >= node_count() || destination >= node_count()) return nullptr;
  const std::uint32_t slot = neighbors_[neighbor].slot;
  return slot == kNoSlot ? nullptr : &cell(slot, destination);
}

RouteAdvert Rib::advert(const Cell& held) const {
  RouteAdvert advert = held.message->entry(held.entry);
  if (held.values_generation != values_generation_) advert.transit_values = {};
  return advert;
}

std::optional<RouteAdvert> Rib::stored(NodeId neighbor,
                                       NodeId destination) const {
  const Cell* held = find(neighbor, destination);
  if (held == nullptr || held->message == nullptr) return std::nullopt;
  return advert(*held);
}

void Rib::note_sender(NodeId neighbor, Cost neighbor_cost) {
  FPSS_EXPECTS(neighbor < node_count() && neighbor != self_);
  FPSS_EXPECTS(neighbor_cost.is_finite());
  Neighbor& nb = neighbors_[neighbor];
  nb.cost = neighbor_cost;
  if (nb.heard) return;
  nb.heard = true;
  heard_.insert(std::upper_bound(heard_.begin(), heard_.end(), neighbor),
                neighbor);
  if (nb.slot == kNoSlot) {
    nb.slot = static_cast<std::uint32_t>(rib_in_.size() / node_count());
    rib_in_.resize(rib_in_.size() + node_count());
  }
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
    if (held.message == nullptr) continue;
    // Retired values count zero, as if the barrier had erased them.
    const RouteAdvert stored = advert(held);
    words += stored.path.size() + stored.node_costs.size() + 1 +
             2 * stored.transit_values.size();
  }
  return words;
}

}  // namespace fpss::bgp

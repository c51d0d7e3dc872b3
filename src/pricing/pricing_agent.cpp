#include "pricing/pricing_agent.h"

#include <algorithm>
#include <optional>
#include <span>

#include "util/contract.h"

namespace fpss::pricing {

using bgp::RouteAdvert;
using bgp::SelectedRoute;

PricingAgent::PricingAgent(NodeId self, std::size_t node_count,
                           Cost declared_cost, bgp::UpdatePolicy policy)
    : PlainBgpAgent(self, node_count, declared_cost, policy),
      rows_(node_count),
      recompute_all_(node_count) {}

bool PricingAgent::prices_complete() const {
  for (NodeId j = 0; j < rib().node_count(); ++j) {
    if (j == id()) continue;
    const SelectedRoute& route = rib().selected(j);
    if (!route.valid()) return false;
    if (!rows_[j].complete()) return false;
  }
  return true;
}

void PricingAgent::restart_values() {
  rib().clear_stored_values();
  for (NodeId j = 0; j < rib().node_count(); ++j)
    rows_[j].rekey(rib().selected(j), /*preserve=*/false);
  recompute_all_.insert_all();
  // Everyone re-advertises everything so rows can refill from post-restart
  // information only (a route-refresh wave).
  request_full_readvertisement();
}

bool PricingAgent::update_extension(const std::vector<NodeId>& changed,
                                    bgp::NodeSet& readvertise) {
  ++activations_;
  if (!changed.empty()) last_route_change_ = activations_;

  // A route change re-keys the row: the price array indexes the transit
  // nodes of the *current* path, and (in the price-vector protocol) every
  // estimate is relative to the current LCP cost, so surviving entries
  // restart at +infinity (Sect. 6: convergence starts over on route
  // change). The avoidance variant's entries are route-independent path
  // costs and survive.
  for (NodeId j : changed) {
    rows_[j].rekey(rib().selected(j), preserve_values_on_route_change());
    recompute_all_.insert(j);
  }

  bool lowered = false;
  const auto apply = [&](NodeId j, NodeId a) {
    if (!apply_neighbor(j, a)) return;
    readvertise.insert(j);
    lowered = true;
  };
  // apply_neighbor reads the Rib but never changes who was heard, so the
  // neighbor list stays put for the whole loop.
  const std::vector<NodeId>& neighbors = rib().known_neighbors();
  for (NodeId j : recompute_all_.sorted())
    for (NodeId a : neighbors) apply(j, a);
  if (!fresh_ascending_) {
    std::sort(fresh_.begin(), fresh_.end());
    fresh_.erase(std::unique(fresh_.begin(), fresh_.end()), fresh_.end());
  }
  for (const auto& [a, j] : fresh_)
    if (!recompute_all_.contains(j)) apply(j, a);
  fresh_.clear();
  fresh_ascending_ = true;
  recompute_all_.clear();

  if (lowered) last_value_change_ = activations_;
  return lowered;
}

bgp::TransitValues PricingAgent::advert_values(NodeId destination) const {
  return rows_[destination].entries();
}

std::size_t PricingAgent::extension_words() const {
  std::size_t words = 0;
  for (const ValueRow& r : rows_) words += 2 * r.size();
  return words;
}

void PricingAgent::note_refreshed(NodeId sender, NodeId destination) {
  const std::pair<NodeId, NodeId> refreshed{sender, destination};
  fresh_ascending_ =
      fresh_ascending_ && (fresh_.empty() || fresh_.back() < refreshed);
  fresh_.push_back(refreshed);
}

void PricingAgent::note_sender_cost_change(NodeId sender) {
  // Values previously derived through this neighbor embed its old cost;
  // re-derive every row from the stored tables (the row resets themselves
  // happen via route changes / the session's restart barrier).
  (void)sender;
  recompute_all_.insert_all();
}

ValueRow& PricingAgent::row(NodeId destination) {
  FPSS_EXPECTS(destination < rows_.size());
  return rows_[destination];
}

const ValueRow& PricingAgent::row(NodeId destination) const {
  FPSS_EXPECTS(destination < rows_.size());
  return rows_[destination];
}

// ---------------------------------------------------------------------------
// PriceVectorAgent — Fig. 3
// ---------------------------------------------------------------------------

namespace {

/// Position of `k` among the transit nodes of `path` (1 .. size - 2), or 0
/// if it is not one. Position `guess` is checked first; a miss scans.
std::size_t transit_index(std::span<const NodeId> path, NodeId k,
                          std::size_t guess) {
  if (guess > 0 && guess + 1 < path.size() && path[guess] == k) return guess;
  for (std::size_t s = 1; s + 1 < path.size(); ++s)
    if (path[s] == k) return s;
  return 0;
}

/// An advert's value for `k`, found at path position `at`. An advert's
/// values are keyed by its path's transit nodes in order, so the entry at
/// at - 1 is checked first; a miss (values retired or keyed otherwise)
/// falls back to the search.
Cost transit_value(bgp::TransitValues values, std::size_t at, NodeId k) {
  if (at <= values.size() && values[at - 1].first == k)
    return values[at - 1].second;
  return lookup_value(values, k, nullptr);
}

}  // namespace

Cost PriceVectorAgent::price(NodeId destination, NodeId transit) const {
  const SelectedRoute& route = rib().selected(destination);
  if (!route.valid() || !graph::is_transit_node(route.path, transit))
    return Cost::zero();
  return row(destination).get(transit);
}

bool PriceVectorAgent::apply_neighbor(NodeId destination, NodeId a) {
  const NodeId j = destination;
  ValueRow& prices = row(j);
  if (prices.empty()) return false;  // no transit nodes on our path
  const SelectedRoute& mine = rib().selected(j);
  FPSS_ASSERT(mine.valid());
  const std::optional<RouteAdvert> advert = rib().stored(a, j);
  if (!advert.has_value()) return false;
  const bgp::TransitValues values = advert->transit_values;

  const Cost c_a = rib().neighbor_cost(a);
  const Cost c_i = rib().declared_cost();

  // Fig. 3's case analysis. The tree relations are read off the actual
  // stored paths so the rules stay sound even in transient states where
  // the neighbor's advert predates our current route.
  const bool a_is_parent = (mine.next_hop == a);
  const bool a_is_child =
      advert->path.size() == mine.path.size() + 1 &&
      std::equal(mine.path.begin(), mine.path.end(), advert->path.begin() + 1);

  bool lowered = false;
  for (std::size_t t = 1; t + 1 < mine.path.size(); ++t) {
    const NodeId k = mine.path[t];
    const Cost c_k = mine.node_costs[t];
    if (k == a) {
      // From a parent we never learn a's own price (the link i-a is not on
      // P_a(c;i,j)); from any other relation, a route through a cannot
      // avoid a. Either way, skip.
      continue;
    }
    // Membership is read from the advertised path itself — the values may
    // be absent (retired by a restart) even though k is on the path. Our
    // node t sits one place earlier on a parent's path (ours without us)
    // and one later on a child's (a, then ours).
    const std::size_t guess = a_is_parent ? t - 1 : a_is_child ? t + 1 : 0;
    const std::size_t at = transit_index(advert->path, k, guess);
    Cost::rep candidate;
    if (at != 0) {
      const Cost p_a = transit_value(values, at, k);
      if (p_a.is_infinite()) continue;
      if (a_is_parent) {
        // Case (i): our path is the link ia plus a's path; a k-avoiding
        // path from a extends to one from us at the same price.
        candidate = p_a.value();
      } else if (a_is_child) {
        // Case (ii): we are on a's path; p^k_ij <= p^k_aj + c_i + c_a.
        candidate = p_a.value() + c_i.value() + c_a.value();
      } else {
        // Case (iii): k lies on both paths; shift a's price by the cost
        // deltas: p^k_ij <= p^k_aj + c_a + c(a,j) - c(i,j).
        candidate = p_a.value() + c_a.value() + (advert->cost - mine.cost);
      }
    } else {
      // Case (iv): a's whole route avoids k; append the link ia to it:
      // p^k_ij <= c_k + c_a + c(a,j) - c(i,j). A neighbor that *is* the
      // destination contributes the zero-transit direct path.
      const Cost avoid_via_a =
          (a == j) ? Cost::zero() : c_a + advert->cost;
      candidate = c_k.value() + (avoid_via_a - mine.cost);
    }
    // Transient underestimates (our own LCP estimate still too high) can
    // push a candidate below zero; they are wiped by the reset that
    // accompanies our next route improvement, so clamping is safe.
    if (candidate < 0) candidate = 0;
    lowered |= prices.lower_at(t - 1, k, Cost{candidate});
  }
  return lowered;
}

// ---------------------------------------------------------------------------
// AvoidanceVectorAgent — B-space reformulation
// ---------------------------------------------------------------------------

Cost AvoidanceVectorAgent::price(NodeId destination, NodeId transit) const {
  const SelectedRoute& route = rib().selected(destination);
  if (!route.valid() || !graph::is_transit_node(route.path, transit))
    return Cost::zero();
  const Cost b = row(destination).get(transit);
  if (b.is_infinite()) return Cost::infinity();
  // p^k = c_k + B^k - c(i,j); B^k >= c(i,j) once exact, but transient
  // estimates are upper bounds of real paths, hence also >= c(i,j)... only
  // after our route is final. Clamp transients at c_k.
  Cost c_k = Cost::zero();
  for (std::size_t t = 1; t + 1 < route.path.size(); ++t) {
    if (route.path[t] == transit) {
      c_k = route.node_costs[t];
      break;
    }
  }
  const Cost::rep delta = b - route.cost;
  return delta >= 0 ? cost_plus_delta(c_k, delta) : c_k;
}

bool AvoidanceVectorAgent::apply_neighbor(NodeId destination, NodeId a) {
  const NodeId j = destination;
  ValueRow& avoidance = row(j);
  if (avoidance.empty()) return false;
  const SelectedRoute& mine = rib().selected(j);
  FPSS_ASSERT(mine.valid());
  const std::optional<RouteAdvert> advert = rib().stored(a, j);
  if (!advert.has_value()) return false;
  const bgp::TransitValues values = advert->transit_values;
  const Cost c_a = rib().neighbor_cost(a);

  bool lowered = false;
  for (std::size_t t = 1; t + 1 < mine.path.size(); ++t) {
    const NodeId k = mine.path[t];
    if (k == a) continue;  // any route through a fails to avoid a
    Cost candidate;
    if (a == j) {
      candidate = Cost::zero();  // the direct link carries no transit cost
    } else {
      // Unified rule: B^k_ij = min_a (c_a + (k on a's path ? B^k_aj
      //                                                    : c(a,j))).
      // Membership comes from the path itself; the value may be missing
      // (restart) even when k is on the path.
      const bool on_neighbors_path = graph::is_transit_node(advert->path, k);
      const Cost b_a = lookup_value(values, k, nullptr);
      candidate = on_neighbors_path ? c_a + b_a : c_a + advert->cost;
    }
    lowered |= avoidance.lower(k, candidate);
  }
  return lowered;
}

}  // namespace fpss::pricing

// Common base of the two distributed price-computation agents:
//  * PriceVectorAgent  — the paper's algorithm (Fig. 3): nodes exchange
//    price arrays p^k_ij and apply the four case rules.
//  * AvoidanceVectorAgent — an algebraically equivalent reformulation that
//    exchanges k-avoiding path costs B^k_ij = Cost(P_k(c;i,j)) instead
//    (p^k_ij = c_k + B^k_ij - c(i,j)); see DESIGN.md, experiment E9.
//
// Both run on the unmodified BGP substrate: the extension only adds state
// to nodes and fields to the existing routing messages.
#pragma once

#include <utility>
#include <vector>

#include "bgp/node_set.h"
#include "bgp/plain_agent.h"
#include "pricing/value_row.h"

namespace fpss::pricing {

class PricingAgent : public bgp::PlainBgpAgent {
 public:
  PricingAgent(NodeId self, std::size_t node_count, Cost declared_cost,
               bgp::UpdatePolicy policy);

  /// The node's current estimate of the per-packet price p^k_{self,j} owed
  /// to transit node k for packets it originates toward j. Infinite while
  /// still unknown; zero when k is not on the selected path.
  virtual Cost price(NodeId destination, NodeId transit) const = 0;

  /// True iff every price on every selected path is known (finite).
  bool prices_complete() const;

  /// Restarts the value computation from scratch (all entries +infinity)
  /// while keeping routes — the paper's "price computation must start over"
  /// semantics, applied network-wide after a dynamic event.
  void restart_values();

  // --- per-node convergence introspection (Lemma 2 / E6) -----------------
  Stage activations() const { return activations_; }
  Stage last_route_change_activation() const { return last_route_change_; }
  Stage last_value_change_activation() const { return last_value_change_; }

 protected:
  /// Case analysis of Fig. 3 / the B-space rule: subclasses apply the
  /// stored advert of neighbor `a` to the value row of `destination`.
  /// Returns true if any entry decreased.
  virtual bool apply_neighbor(NodeId destination, NodeId a) = 0;

  /// Whether surviving path entries keep their values across a route
  /// change (avoidance-vector) or restart at +infinity (price-vector).
  virtual bool preserve_values_on_route_change() const = 0;

  // PlainBgpAgent extension hooks.
  bool update_extension(const std::vector<NodeId>& changed,
                        bgp::NodeSet& readvertise) override;
  bgp::TransitValues advert_values(NodeId destination) const override;
  std::size_t extension_words() const override;
  void note_refreshed(NodeId sender, NodeId destination) override;
  void note_sender_cost_change(NodeId sender) override;

  ValueRow& row(NodeId destination);
  const ValueRow& row(NodeId destination) const;

 private:
  std::vector<ValueRow> rows_;
  /// (neighbor, destination) adverts refreshed since the last compute, in
  /// arrival order, possibly with repeats. The stage scheduler delivers by
  /// sender and each message by destination, so the list arrives ascending
  /// and repeat-free; only a list that did not is sorted and deduplicated.
  std::vector<std::pair<NodeId, NodeId>> fresh_;
  bool fresh_ascending_ = true;  ///< fresh_ strictly ascending so far
  /// Destinations needing re-derivation from every stored advert.
  bgp::NodeSet recompute_all_;
  Stage activations_ = 0;
  Stage last_route_change_ = 0;
  Stage last_value_change_ = 0;
};

/// The paper's price-vector algorithm (Fig. 3).
class PriceVectorAgent : public PricingAgent {
 public:
  using PricingAgent::PricingAgent;

  Cost price(NodeId destination, NodeId transit) const override;

 protected:
  bool apply_neighbor(NodeId destination, NodeId a) override;
  bool preserve_values_on_route_change() const override { return false; }
};

/// The avoidance-vector reformulation: rows hold B^k, converted to prices
/// on demand. Values survive route reselection (they are path costs, valid
/// regardless of which route this node currently uses).
class AvoidanceVectorAgent : public PricingAgent {
 public:
  using PricingAgent::PricingAgent;

  Cost price(NodeId destination, NodeId transit) const override;

 protected:
  bool apply_neighbor(NodeId destination, NodeId a) override;
  bool preserve_values_on_route_change() const override { return true; }
};

}  // namespace fpss::pricing

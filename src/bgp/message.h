// The extended BGP message format. Per Sect. 5-6, a routing update carries,
// per destination: the selected AS path and its total transit cost; and, for
// the pricing extension, the declared cost of every node on the path ("the
// reported cost of each transit node") plus the sender's current per-transit
// value array (price estimates p^k, or k-avoiding costs B^k in the
// avoidance-vector variant). "Our algorithm introduces additional state to
// the nodes and to the message exchanges between nodes, but it does not
// introduce any new messages to the protocol."
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "graph/path.h"
#include "util/cost.h"
#include "util/types.h"

namespace fpss::bgp {

/// One routing-table entry as advertised to a neighbor.
struct RouteAdvert {
  NodeId destination = kInvalidNode;

  /// Full AS path, sender first, destination last. Empty = withdrawal
  /// (the sender lost its route to this destination).
  graph::Path path;

  /// c(sender, destination): total transit cost of `path`.
  Cost cost = Cost::infinity();

  /// Declared per-node costs aligned with `path` (node_costs[t] is the
  /// declared cost of path[t]). This floods every on-path cost hop by hop.
  std::vector<Cost> node_costs;

  /// The pricing extension's payload: for each *transit* node k of `path`,
  /// the sender's current estimate — p^k_{sender,dest} under the price
  /// protocol of Fig. 3, or Cost(P_k(c;sender,dest)) under the
  /// avoidance-vector variant. Entries may be infinite (still unknown).
  std::vector<std::pair<NodeId, Cost>> transit_values;

  bool is_withdrawal() const { return path.empty(); }
};

/// A read-only view of an advert's transit_values.
using TransitValues = std::span<const std::pair<NodeId, Cost>>;

/// One routing update: the sender's changed (or full) table plus its own
/// declared transit cost.
struct TableMessage {
  NodeId sender = kInvalidNode;
  Cost sender_cost;  ///< declared c_sender, piggybacked on every exchange
  std::vector<RouteAdvert> entries;
};

/// A sent message is shared and immutable: when an agent's export filter is
/// the identity (Agent::filters_exports() == false) every neighbor receives
/// the same refcounted payload, and a receiver's Adj-RIB-In keeps pointing
/// into it (Rib::ingest) instead of copying the entries out.
using MessageRef = std::shared_ptr<const TableMessage>;

/// Size accounting for the E5 communication-overhead experiment, in
/// abstract "words" (one word per AS number or cost value).
struct MessageSize {
  std::size_t entries = 0;
  std::size_t path_words = 0;    ///< AS numbers in advertised paths
  std::size_t cost_words = 0;    ///< path cost + per-node cost fields
  std::size_t value_words = 0;   ///< pricing-extension payload

  std::size_t base_words() const { return entries + path_words + cost_words; }
  std::size_t total_words() const { return base_words() + value_words; }

  MessageSize& operator+=(const MessageSize& other);
  MessageSize& operator-=(const MessageSize& other);
};

MessageSize measure(const TableMessage& msg);

}  // namespace fpss::bgp

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
#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "util/contract.h"
#include "util/cost.h"
#include "util/types.h"

namespace fpss::bgp {

/// One transit value of the pricing extension: (transit node k, value).
using TransitValue = std::pair<NodeId, Cost>;

/// A read-only view of an advert's transit values.
using TransitValues = std::span<const TransitValue>;

/// One routing-table entry as advertised to a neighbor: a view into the
/// arrays of the TableMessage it belongs to (TableMessage::entry), valid as
/// long as that message is.
struct RouteAdvert {
  NodeId destination = kInvalidNode;

  /// Full AS path, sender first, destination last. Empty = withdrawal
  /// (the sender lost its route to this destination).
  std::span<const NodeId> path;

  /// c(sender, destination): total transit cost of `path`.
  Cost cost = Cost::infinity();

  /// Declared per-node costs aligned with `path` (node_costs[t] is the
  /// declared cost of path[t]). This floods every on-path cost hop by hop.
  std::span<const Cost> node_costs;

  /// The pricing extension's payload: for each *transit* node k of `path`,
  /// the sender's current estimate — p^k_{sender,dest} under the price
  /// protocol of Fig. 3, or Cost(P_k(c;sender,dest)) under the
  /// avoidance-vector variant. Entries may be infinite (still unknown).
  TransitValues transit_values;

  bool is_withdrawal() const { return path.empty(); }

  static RouteAdvert withdrawal(NodeId destination) {
    RouteAdvert advert;
    advert.destination = destination;
    return advert;
  }
};

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

/// One routing update: the sender's changed (or full) table plus its own
/// declared transit cost.
///
/// The entries live in four flat arrays: one record per entry (destination,
/// cost and where its slices end), then every entry's path nodes, node
/// costs and transit values back to back. Filling a message after
/// reserve()-ing the exact totals costs a fixed number of allocations,
/// whatever its entry count.
class TableMessage {
 public:
  /// The fields of the entry add() just appended that may still be
  /// rewritten (an extension's decorate hook does). Valid until the next
  /// add(); once sent, the message is shared as const.
  struct Draft {
    Cost& cost;
    std::span<TransitValue> transit_values;
  };

  TableMessage() = default;
  TableMessage(NodeId sender, Cost sender_cost)
      : sender_(sender), sender_cost_(sender_cost) {}

  NodeId sender() const { return sender_; }
  /// The sender's declared c_sender, piggybacked on every exchange.
  Cost sender_cost() const { return sender_cost_; }

  std::size_t size() const { return records_.size(); }
  bool empty() const { return records_.empty(); }

  /// Entry `e`, in the order it was added. Precondition: e < size().
  /// Defined here: every receive, selection and price update reads its
  /// entries through this call.
  RouteAdvert entry(std::size_t e) const {
    FPSS_EXPECTS(e < records_.size());
    const Record& record = records_[e];
    const std::size_t path_begin = e == 0 ? 0 : records_[e - 1].path_end;
    const std::size_t values_begin = e == 0 ? 0 : records_[e - 1].values_end;
    const std::size_t hops = record.path_end - path_begin;
    return {record.destination, {path_nodes_.data() + path_begin, hops},
            record.cost, {node_costs_.data() + path_begin, hops},
            {values_.data() + values_begin, record.values_end - values_begin}};
  }

  /// Makes room for `entries` more entries holding `path_nodes` path nodes
  /// and `values` transit values between them.
  void reserve(std::size_t entries, std::size_t path_nodes,
               std::size_t values);

  /// Appends a copy of `advert` (a withdrawal if its path is empty).
  Draft add(const RouteAdvert& advert);

  friend MessageSize measure(const TableMessage& msg);

 private:
  /// One entry: its slices run from the previous record's ends to these.
  struct Record {
    NodeId destination;
    std::uint32_t path_end;    ///< into path_nodes_ and node_costs_
    std::uint32_t values_end;  ///< into values_
    Cost cost;
  };

  NodeId sender_ = kInvalidNode;
  Cost sender_cost_;
  std::vector<Record> records_;
  std::vector<NodeId> path_nodes_;
  std::vector<Cost> node_costs_;  ///< aligned with path_nodes_
  std::vector<TransitValue> values_;
};

/// A sent message is shared and immutable: when an agent's export filter is
/// the identity (Agent::filters_exports() == false) every neighbor receives
/// the same refcounted payload, and a receiver's Adj-RIB-In keeps pointing
/// into it (Rib::ingest) instead of copying the entries out.
using MessageRef = std::shared_ptr<const TableMessage>;

MessageSize measure(const TableMessage& msg);

}  // namespace fpss::bgp

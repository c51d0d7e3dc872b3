// Per-router routing information base: the Adj-RIB-In of neighbor tables
// (footnote 6: "Nodes keep the routing tables received from each of their
// neighbors") and the selected route per destination, recomputed by the
// canonical preference order of routing/route.h.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "bgp/message.h"
#include "graph/path.h"
#include "util/contract.h"
#include "util/cost.h"
#include "util/inline_vector.h"
#include "util/types.h"

namespace fpss::bgp {

/// Path nodes a selected route holds inline. The longest selected path in
/// the served graphs (perfbench's `internet_like` at n = 24, 64 and 128)
/// has 6 nodes, bar 2 of the 16,384 pairs at n = 128; a longer route moves
/// its path and node costs to the heap.
inline constexpr std::size_t kInlinePathNodes = 6;

/// A selected route's path nodes, or their declared costs.
using RoutePath = util::InlineVector<NodeId, kInlinePathNodes>;
using RouteNodeCosts = util::InlineVector<Cost, kInlinePathNodes>;

/// The route a router currently uses toward one destination.
struct SelectedRoute {
  RoutePath path;                ///< self first, destination last; empty = none
  Cost cost = Cost::infinity();  ///< transit cost of `path`
  RouteNodeCosts node_costs;     ///< declared costs aligned with `path`
  NodeId next_hop = kInvalidNode;

  bool valid() const { return !path.empty(); }
  std::uint32_t hops() const {
    return valid() ? static_cast<std::uint32_t>(path.size() - 1) : 0;
  }
};

/// Routing state of one router. Owns no protocol logic beyond route
/// selection; agents layer (re)advertisement policy and pricing on top.
///
/// Storage is dense: the Adj-RIB-In is one table with a row of
/// node_count() cells per neighbor slot (a slot is given to a neighbor the
/// first time it is heard and kept across session teardowns), and neighbor
/// costs sit in an array indexed by node id. A cell does not copy the
/// advert: it shares ownership of the immutable message the advert arrived
/// in and records the entry's index, so storing one costs a reference
/// count. A stored advert is never written; the restart barrier retires its
/// values by generation instead (clear_stored_values).
class Rib {
 public:
  Rib(NodeId self, std::size_t node_count, Cost declared_cost);

  NodeId self() const { return self_; }
  std::size_t node_count() const { return selected_.size(); }
  Cost declared_cost() const { return declared_cost_; }
  void set_declared_cost(Cost c);

  /// Stores entry `e` of `msg` as the latest advert heard from its sender
  /// about the entry's destination (a withdrawal empties the cell). The
  /// cell shares `msg`, so the message lives while any of its entries is
  /// stored. Returns true iff the stored route changed: its path, cost or
  /// node costs differ from the cell's, a route landed in an empty cell, or
  /// a withdrawal emptied a full one. Transit values alone never count.
  /// Precondition: the sender was noted (note_sender) at the message's
  /// declared cost, once per message rather than once per entry.
  bool ingest(const MessageRef& msg, std::size_t e);

  /// Forgets everything heard from `neighbor` (session teardown). Returns
  /// the destinations whose stored advert was dropped.
  std::vector<NodeId> purge_neighbor(NodeId neighbor);

  /// Retires the pricing payload of every stored advert (restart barrier:
  /// price state must refill from post-restart messages only). The adverts
  /// stay as they are; stored() reads the values of a cell stored before
  /// the call as empty until a fresh advert replaces it.
  void clear_stored_values();

  /// Recomputes the selected route for `destination` from the current
  /// Adj-RIB-In. Returns true iff the selection (path or cost) changed.
  bool reselect(NodeId destination);

  /// Makes `winner` (a stored advert, or nullopt for "no route") the
  /// selection for `destination`: the route is this router followed by
  /// `winner->path`, with transit cost `cost`. Compares with the current
  /// selection in place and writes only when path, cost or node costs
  /// differ. Returns true iff the selection changed. Every route selector
  /// (the canonical rule here, and the policy overrides of agents) ends in
  /// this call. Precondition: destination != self.
  bool install(NodeId destination, const std::optional<RouteAdvert>& winner,
               Cost cost);

  const SelectedRoute& selected(NodeId destination) const {
    FPSS_EXPECTS(destination < node_count());
    return selected_[destination];
  }

  /// The neighbor's advert stored for (neighbor, destination), if any: a
  /// view into the message it arrived in. Its transit values read as empty
  /// if it was stored before the last clear_stored_values(). The view stays
  /// valid until the cell changes: the next ingest for the pair or purge of
  /// the neighbor.
  std::optional<RouteAdvert> stored(NodeId neighbor, NodeId destination) const;

  /// Neighbors we have heard from, ascending. The list is maintained in
  /// place: the reference stays valid for the Rib's lifetime, but its
  /// contents change on the next note_sender or purge_neighbor that adds
  /// or drops a neighbor, so do not iterate it across those.
  const std::vector<NodeId>& known_neighbors() const { return heard_; }

  /// Records `neighbor`'s declared cost (every message carries the
  /// sender's cost, even a pure price refresh), marking it heard and
  /// giving it an Adj-RIB-In row on first contact.
  void note_sender(NodeId neighbor, Cost neighbor_cost);

  bool heard_from(NodeId neighbor) const {
    return neighbor < node_count() && neighbors_[neighbor].heard;
  }

  /// Declared cost of `neighbor` as last heard. Precondition: heard from it.
  Cost neighbor_cost(NodeId neighbor) const;

  /// Routing-table footprint in words (E5): selected paths + stored
  /// neighbor tables.
  std::size_t selected_words() const;
  std::size_t adj_rib_in_words() const;

 private:
  static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};

  /// What this router knows about one other node as a neighbor.
  struct Neighbor {
    Cost cost;                     ///< declared cost, as last heard
    std::uint32_t slot = kNoSlot;  ///< Adj-RIB-In row; kNoSlot = none yet
    bool heard = false;            ///< session up and heard from
  };

  /// A cell generation no live generation equals: clear_stored_values()
  /// stamps it on every cell when the counter wraps.
  static constexpr std::uint32_t kRetired = ~std::uint32_t{0};

  /// One Adj-RIB-In cell: a stored advert, as an entry of its message.
  struct Cell {
    MessageRef message;  ///< null = nothing stored
    std::uint32_t entry = 0;
    /// values_generation_ when stored; older cells' values read as empty.
    std::uint32_t values_generation = 0;
  };
  static_assert(sizeof(Cell) <= 24, "a cell is one pointer pair and two ids");

  Cell& cell(std::uint32_t slot, NodeId destination) {
    return rib_in_[slot * node_count() + destination];
  }
  const Cell& cell(std::uint32_t slot, NodeId destination) const {
    return rib_in_[slot * node_count() + destination];
  }
  /// The cell for (neighbor, destination); nullptr if the neighbor never
  /// had a row or an id is out of range.
  const Cell* find(NodeId neighbor, NodeId destination) const;
  /// The cell's advert, values retired if stored before the last bump.
  /// Precondition: the cell is full.
  RouteAdvert advert(const Cell& held) const;

  NodeId self_;
  Cost declared_cost_;
  std::vector<SelectedRoute> selected_;
  std::vector<Neighbor> neighbors_;  ///< by node id
  std::vector<NodeId> heard_;        ///< heard neighbors, ascending
  /// Row-major by (slot, destination). A stored advert is never a
  /// withdrawal.
  std::vector<Cell> rib_in_;
  std::uint32_t values_generation_ = 0;  ///< never kRetired
};

}  // namespace fpss::bgp

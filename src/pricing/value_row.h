// Per-destination value arrays for the pricing extension.
//
// For each destination j a node keeps one value per *transit node of its
// currently selected path* — "the entries of p^{v_r}_{ij}" of Sect. 6.1 —
// initialized to +infinity and driven down by neighbor updates.
#pragma once

#include <cstddef>
#include <utility>

#include "bgp/rib.h"
#include "util/cost.h"
#include "util/inline_vector.h"
#include "util/types.h"

namespace fpss::pricing {

/// One (destination-indexed) row of per-transit values. Entries are kept in
/// path order; lookups scan linearly (paths are a handful of hops). A row
/// holds the transit nodes of a selected path, so it keeps as many inline
/// as that path keeps nodes, less its two endpoints.
class ValueRow {
 public:
  using Entries =
      util::InlineVector<std::pair<NodeId, Cost>, bgp::kInlinePathNodes - 2>;

  /// Re-keys the row, in its own storage, to the transit nodes of `route`.
  /// Entries for nodes still on the path survive if `preserve`
  /// (avoidance-vector variant); everything else starts at +infinity
  /// (Sect. 6.1 initialization). Returns true if the row contents changed.
  bool rekey(const bgp::SelectedRoute& route, bool preserve);

  /// Resets every entry to +infinity (the "convergence must start over"
  /// restart). Returns true if anything was finite.
  bool reset();

  bool empty() const { return entries_.empty(); }
  std::size_t size() const { return entries_.size(); }

  /// Value for transit node k; infinity if absent or unknown.
  Cost get(NodeId k) const;
  bool contains(NodeId k) const;

  /// min-updates entry k (must exist). Returns true if it decreased.
  bool lower(NodeId k, Cost candidate);
  /// lower(k, candidate), trying entry `index` first: a row keyed by the
  /// selected path keeps path node t at index t - 1.
  bool lower_at(std::size_t index, NodeId k, Cost candidate);

  /// All (transit node, value) pairs, path-ordered — the message payload.
  const Entries& entries() const { return entries_; }

  /// True iff every entry is finite (the row has fully converged values).
  bool complete() const;

 private:
  Entries entries_;
};

/// Convenience lookup in a received transit_values payload.
Cost lookup_value(bgp::TransitValues values, NodeId k, bool* found);

}  // namespace fpss::pricing

// Using the prices (Sect. 6.4): once every node knows the per-packet
// prices p^k_ij, revenue collection is counter-based — "every time a packet
// is sent from source i to a destination j, the counter for each node
// k != i, j that lies on the LCP is incremented by p^k_ij", and the running
// totals are submitted to the accounting mechanism at intervals.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "graph/graph.h"
#include "graph/path.h"
#include "routing/all_pairs.h"
#include "payments/traffic.h"
#include "util/cost.h"
#include "util/types.h"

namespace fpss::payments {

/// Price oracle: per-packet price owed to transit node k for an i -> j
/// packet. Must return zero when k is not on the selected i -> j path.
using PriceFn = std::function<Cost(NodeId k, NodeId i, NodeId j)>;

/// Per-node running charge counters (the O(n) additional storage the paper
/// budgets per node), with periodic settlement into a cumulative account.
class Ledger {
 public:
  explicit Ledger(std::size_t node_count);

  std::size_t node_count() const { return owed_.size(); }

  /// Charges `packets` packets traveling the given i -> j path: each
  /// transit node's counter grows by packets * p^k_ij.
  void record_packets(std::span<const NodeId> path, const PriceFn& price,
                      std::uint64_t packets);

  /// Amount accrued to k since the last settlement.
  Cost::rep owed(NodeId k) const;

  /// Lifetime amount settled to k.
  Cost::rep settled(NodeId k) const;

  /// Whole-ledger copies (one entry per node), used by the service layer
  /// to embed payment totals into an immutable RouteSnapshot.
  std::vector<Cost::rep> owed_all() const { return owed_; }
  std::vector<Cost::rep> settled_all() const { return settled_; }

  /// Flushes all running counters into the settled accounts (the periodic
  /// submission "to whatever accounting and charging mechanisms are used").
  void settle();

  /// Replaces both account vectors wholesale — the warm-start path: a
  /// restarted RouteService reloads the totals its last published snapshot
  /// embedded, so accounting survives the restart. Precondition: both
  /// vectors have node_count() entries.
  void restore(std::vector<Cost::rep> owed, std::vector<Cost::rep> settled);

  Cost::rep total_outstanding() const;

 private:
  std::vector<Cost::rep> owed_;
  std::vector<Cost::rep> settled_;
};

/// One node's bottom line under a pricing scheme and traffic matrix.
struct NodeStatement {
  Cost::rep revenue = 0;            ///< sum of T_ij * p^k_ij over pairs routed through k
  Cost::rep incurred = 0;           ///< c_k * transit packets carried
  std::uint64_t transit_packets = 0;

  /// The agent's utility tau_k (Sect. 3): payment minus incurred cost.
  Cost::rep profit() const { return revenue - incurred; }
};

/// Full settlement: routes all traffic along the selected LCPs, charges
/// per-packet prices, and returns every node's statement. `g` supplies the
/// (true) per-node costs used for the incurred side.
std::vector<NodeStatement> settle_traffic(const graph::Graph& g,
                                          const routing::AllPairsRoutes& routes,
                                          const TrafficMatrix& traffic,
                                          const PriceFn& price);

}  // namespace fpss::payments

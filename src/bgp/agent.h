// The computational model of Sect. 5: "The computation of a single router
// can be viewed as consisting of an infinite sequence of stages, where each
// stage consists of receiving routing tables from its neighbors, followed
// by local computation, followed (perhaps) by sending its own routing table
// to its neighbors (if its own routing table changed)."
//
// An Agent is the per-AS algorithm plugged into an engine (sync stages or
// asynchronous event delivery). PlainBgpAgent implements route computation
// only; the pricing module layers the Fig. 3 price computation on top.
#pragma once

#include <cstddef>
#include <optional>

#include "bgp/message.h"
#include "util/cost.h"
#include "util/types.h"

namespace fpss::bgp {

/// Router state footprint in words, for the E5 overhead experiment.
struct StateSize {
  std::size_t selected_words = 0;  ///< Loc-RIB: paths + costs
  std::size_t rib_in_words = 0;    ///< Adj-RIB-In: stored neighbor tables
  std::size_t value_words = 0;     ///< pricing extension state

  std::size_t base_words() const { return selected_words + rib_in_words; }
  std::size_t total_words() const { return base_words() + value_words; }
};

/// The algorithm run by one AS. Engines call: bootstrap() once, then per
/// activation any number of receive()s followed by one advertise().
class Agent {
 public:
  virtual ~Agent() = default;

  virtual NodeId id() const = 0;

  /// Prepare the initial advertisement (a node announces itself).
  virtual void bootstrap() = 0;

  /// Ingest one update from a neighbor. No recomputation yet. The agent
  /// may keep references into `msg` (it is immutable once sent).
  virtual void receive(const MessageRef& msg) = 0;

  /// Local computation: reselect routes, update prices, and build the
  /// update to flood to all current neighbors (nullopt = nothing changed,
  /// so nothing is sent — BGP is change-driven).
  virtual std::optional<TableMessage> advertise() = 0;

  /// Per-neighbor export policy: the engine passes the advertisement
  /// through this filter before delivering it to `neighbor`. The default
  /// exports everything (the paper's LCP-only model); Gao-Rexford agents
  /// prune entries and substitute withdrawals here. Returning a message
  /// with no entries suppresses the send.
  virtual TableMessage export_filter(NodeId neighbor,
                                     const TableMessage& msg) {
    (void)neighbor;
    return msg;
  }

  /// True iff export_filter may return something other than `msg`
  /// unchanged. When false (the default), the engine skips the filter and
  /// shares one immutable copy of the advertisement across all neighbors
  /// instead of deep-copying the table per neighbor. Any override of
  /// export_filter MUST also override this to return true.
  virtual bool filters_exports() const { return false; }

  // --- dynamic events (Sect. 6: route changes restart convergence) -------
  virtual void on_link_down(NodeId neighbor) = 0;
  virtual void on_link_up(NodeId neighbor) = 0;
  virtual void on_self_cost_change(Cost new_cost) = 0;

  // --- engine introspection ----------------------------------------------
  /// Did the last advertise() change any selected route?
  virtual bool routes_changed_last_compute() const = 0;
  /// Did the last advertise() change any pricing-extension value?
  virtual bool values_changed_last_compute() const = 0;

  virtual StateSize state_size() const = 0;
};

}  // namespace fpss::bgp

// Orchestration of a distributed price-computation run: builds a network
// of pricing agents over an AS graph, drives it to quiescence with the
// unified engine (under either scheduler), exposes the resulting
// routes/prices, and handles dynamic events with the paper's restart
// semantics ("the process of converging begins again each time a route is
// changed").
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "bgp/engine.h"
#include "graph/graph.h"
#include "pricing/pricing_agent.h"

namespace fpss::pricing {

/// Which distributed algorithm the agents run.
enum class Protocol {
  kPriceVector,      ///< the paper's Fig. 3 algorithm
  kAvoidanceVector,  ///< B-space reformulation (experiment E9)
};

/// How dynamic events restart the price computation.
enum class RestartPolicy {
  /// Paper semantics: after the routes reconverge, all price state restarts
  /// from scratch and refills (correct for arbitrary events).
  kRestartBarrier,
  /// No restart: price state is kept and updated in place. Correct for the
  /// avoidance-vector protocol under *improving* events (link additions,
  /// cost decreases), where surviving B values remain valid upper bounds.
  kIncremental,
};

bgp::AgentFactory make_agent_factory(Protocol protocol,
                                     bgp::UpdatePolicy policy);

/// A network of pricing agents plus the engine that drives it.
class Session {
 public:
  /// A stage-scheduled session. `threads` is the engine's parallel width
  /// for the per-stage compute phase (see bgp::Engine); results are
  /// bit-identical at any width.
  Session(const graph::Graph& g, Protocol protocol,
          bgp::UpdatePolicy policy = bgp::UpdatePolicy::kIncremental,
          unsigned threads = 1);

  /// A session under any engine configuration — scheduler, threads, and
  /// channel model (delays, MRAI, loss, flaps, partitions) all come from
  /// `config`. The Sect. 5 bounds are stated for the stage model, but
  /// correctness must not depend on lockstep synchrony.
  Session(const graph::Graph& g, Protocol protocol,
          const bgp::EngineConfig& config,
          bgp::UpdatePolicy policy = bgp::UpdatePolicy::kIncremental);

  /// A session over custom agents (they must derive from PricingAgent) —
  /// used to inject deviant implementations for the audit experiments.
  Session(const graph::Graph& g, const bgp::AgentFactory& factory,
          unsigned threads = 1);
  Session(const graph::Graph& g, const bgp::AgentFactory& factory,
          const bgp::EngineConfig& config);

  /// Cold-start (or continue) until quiescence; returns this segment's
  /// stats.
  bgp::RunStats run();

  bgp::Network& network() { return *network_; }
  const bgp::Network& network() const { return *network_; }
  bgp::Engine& engine() { return *engine_; }
  const bgp::Engine& engine() const { return *engine_; }
  const bgp::RunStats& total_stats() const { return engine_->stats(); }

  const PricingAgent& agent(NodeId v) const;
  PricingAgent& agent(NodeId v);

  /// Price p^k_ij as known at node i. Zero if k is off-path.
  Cost price(NodeId k, NodeId i, NodeId j) const {
    return agent(i).price(j, k);
  }

  /// The route node i currently uses toward j.
  const bgp::SelectedRoute& route(NodeId i, NodeId j) const {
    return agent(i).selected(j);
  }

  /// True iff every node knows a route and finite prices for every pair.
  bool complete() const;

  // --- dynamics -----------------------------------------------------------

  /// Applies one event and reconverges under the given policy. Returns the
  /// stats of the whole reconvergence (routes + prices).
  bgp::RunStats change_cost(NodeId v, Cost new_cost, RestartPolicy policy);
  bgp::RunStats add_link(NodeId u, NodeId v, RestartPolicy policy);
  bgp::RunStats remove_link(NodeId u, NodeId v, RestartPolicy policy);

  /// One element of a coalesced event burst (see apply_events).
  struct Event {
    enum class Kind { kCostChange, kAddLink, kRemoveLink };
    Kind kind = Kind::kCostChange;
    NodeId u = kInvalidNode;
    NodeId v = kInvalidNode;
    Cost cost;

    static Event cost_change(NodeId node, Cost c) {
      return {Kind::kCostChange, node, kInvalidNode, c};
    }
    static Event add_link(NodeId a, NodeId b) {
      return {Kind::kAddLink, a, b, Cost::zero()};
    }
    static Event remove_link(NodeId a, NodeId b) {
      return {Kind::kRemoveLink, a, b, Cost::zero()};
    }
  };

  /// Applies a whole burst of events and reconverges *once* — the
  /// fail_node pattern generalized, and the primitive behind the serving
  /// layer's delta coalescing. The paper's restart semantics don't care
  /// how many changes precede a restart, only that convergence begins
  /// again afterwards, so one barrier per burst is exactly as sound as
  /// one per event. Preconditions as for the single-event calls (links
  /// added must be absent, links removed must be present).
  bgp::RunStats apply_events(std::span<const Event> events,
                             RestartPolicy policy);

  /// What fail_node did: the reconvergence stats plus the torn-down links
  /// (hand them to restore_node to re-attach the AS later).
  struct NodeFailure {
    bgp::RunStats stats;
    std::vector<std::pair<NodeId, NodeId>> links;
  };

  /// Whole-AS failure: tears down every adjacency of v at once (the AS
  /// disappears from the topology; its prefix becomes unreachable), then
  /// reconverges.
  NodeFailure fail_node(NodeId v, RestartPolicy policy);

  /// Re-attaches a previously failed AS via the given links.
  bgp::RunStats restore_node(
      const std::vector<std::pair<NodeId, NodeId>>& links,
      RestartPolicy policy);

  // --- dirty sink-tree tracking -------------------------------------------
  //
  // The serving layer wants to re-export only the destinations whose sink
  // tree actually changed. Write-tracking inside the agents cannot provide
  // that: the paper's restart barrier wipes and refills *all* price state
  // on every event, so every entry is rewritten even when almost none end
  // up different. Instead the session fingerprints each destination's
  // final converged exported state (selected paths, route costs, prices)
  // and diffs fingerprints across converged epochs.

  /// Opt-in: fingerprint every sink tree after each converged run / event
  /// burst and log which destinations changed. Costs one O(routing state)
  /// pass per converged epoch (parallelized on the engine's pool when one
  /// exists); off by default so non-serving users pay nothing. Enabling
  /// (re)baselines: history before the call is forgotten.
  void track_dirty_destinations(bool enable);
  bool tracks_dirty_destinations() const { return track_dirty_; }

  /// The destinations whose exported sink tree (routes, costs, prices) may
  /// have changed since `since_epoch` — a value previously read from
  /// engine().converged_epochs(). Always a superset of the true change set
  /// (exact up to fingerprint collision, which a 64-bit FNV makes
  /// negligible and a full republish eventually repairs). Sorted, deduped.
  /// nullopt means "unknown — do a full export": tracking is off, there is
  /// no converged baseline, the record window no longer reaches back to
  /// `since_epoch`, or the engine was driven outside the Session API after
  /// the last fingerprinting (fp epoch != converged_epochs()).
  std::optional<std::vector<NodeId>> dirty_destinations(
      std::uint64_t since_epoch) const;

 private:
  bgp::RunStats reconverge(RestartPolicy policy);

  /// Fingerprints + diffs after a converged engine run. Destination j's
  /// fingerprint is an FNV-1a over its exported quantities, folded in
  /// source order: selected path nodes, route cost, and p^k_ij for each
  /// path intermediate k (an invalid route folds a sentinel). Equal
  /// fingerprints <=> equal export rows, modulo 64-bit collision. Called
  /// once per public mutation/run — notably *not* between reconverge()'s
  /// two internal runs, where the restart barrier has every price at
  /// +infinity and a diff would mark all destinations dirty twice over.
  void note_converged();

  /// One converged-epoch transition: the destinations that changed between
  /// from_epoch and to_epoch. Records chain contiguously (one record's
  /// to_epoch is the next one's from_epoch); a baseline record uses
  /// from_epoch 0 and marks everything dirty.
  struct DirtyRecord {
    std::uint64_t from_epoch = 0;
    std::uint64_t to_epoch = 0;
    std::vector<NodeId> destinations;
  };
  /// Records kept before the oldest is dropped (a trimmed window answers
  /// nullopt for epochs it no longer covers).
  static constexpr std::size_t kDirtyWindow = 64;

  std::unique_ptr<bgp::Network> network_;
  std::unique_ptr<bgp::Engine> engine_;
  bool track_dirty_ = false;
  /// converged_epochs() value the fingerprints describe.
  std::uint64_t fp_epoch_ = 0;
  /// Per-destination sink-tree fingerprints; empty until the first
  /// converged run after tracking is enabled.
  std::vector<std::uint64_t> fps_;
  std::vector<DirtyRecord> records_;
  /// Which agent algorithm the factory built. Since the engine unification
  /// (PR 2) this no longer selects an engine — every session drives the
  /// one bgp::Engine — it only lets reconverge() enforce the restart
  /// barrier for the price-vector protocol, whose estimates are deltas
  /// against the pre-event route state and so cannot survive an event
  /// in place. Empty for the custom-factory constructors (the audit
  /// experiments' deviant agents): reconverge() then accepts either
  /// policy and the caller owns the soundness argument.
  std::optional<Protocol> protocol_;
};

}  // namespace fpss::pricing

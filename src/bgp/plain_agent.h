// Plain BGP (lowest-cost configured) with no pricing extension: the
// baseline whose table sizes, message counts, and convergence stages the
// extended protocol is compared against (Theorem 2's "constant-factor
// penalty" claims).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "bgp/agent.h"
#include "bgp/node_set.h"
#include "bgp/rib.h"

namespace fpss::bgp {

/// Full-table vs incremental advertisement policy. The paper's worst-case
/// bounds assume full tables (footnote 6); real BGP sends increments; E5
/// measures both.
enum class UpdatePolicy { kFullTable, kIncremental };

class PlainBgpAgent : public Agent {
 public:
  PlainBgpAgent(NodeId self, std::size_t node_count, Cost declared_cost,
                UpdatePolicy policy);

  NodeId id() const override { return rib_.self(); }
  void bootstrap() override;
  void receive(const MessageRef& msg) override;
  std::optional<TableMessage> advertise() override;

  void on_link_down(NodeId neighbor) override;
  void on_link_up(NodeId neighbor) override;
  void on_self_cost_change(Cost new_cost) override;

  bool routes_changed_last_compute() const override {
    return routes_changed_;
  }
  bool values_changed_last_compute() const override {
    return values_changed_;
  }
  StateSize state_size() const override;

  /// The route this AS currently uses toward `destination`.
  const SelectedRoute& selected(NodeId destination) const {
    return rib_.selected(destination);
  }

  /// Read-only introspection for monitoring/auditing: the latest advert
  /// heard from `neighbor` about `destination` (nullopt if none), with its
  /// transit values as they still count (see Rib::stored), and the
  /// neighbors heard from so far.
  std::optional<RouteAdvert> stored_advert(NodeId neighbor,
                                           NodeId destination) const {
    return rib_.stored(neighbor, destination);
  }
  std::vector<NodeId> heard_neighbors() const {
    return rib_.known_neighbors();
  }
  Cost heard_neighbor_cost(NodeId neighbor) const {
    return rib_.neighbor_cost(neighbor);
  }

 protected:
  Rib& rib() { return rib_; }
  const Rib& rib() const { return rib_; }

  // --- extension hooks (used by the pricing agents) -----------------------

  /// Called by advertise() after routes were reselected; `changed` lists
  /// the destinations whose selection changed this activation, ascending.
  /// Extensions update their own state, insert into `readvertise` the
  /// destinations whose extension values changed (these get re-advertised
  /// even if the route is stable), and return true iff any value changed.
  virtual bool update_extension(const std::vector<NodeId>& changed,
                                NodeSet& readvertise) {
    (void)changed;
    (void)readvertise;
    return false;
  }

  /// The transit_values payload extensions attach to the advert for
  /// `destination` (a valid route). The entry copies it; the span only has
  /// to outlive the copy.
  virtual TransitValues advert_values(NodeId destination) const {
    (void)destination;
    return {};
  }

  /// Called on each route entry right after it is built into the outgoing
  /// message, which is still writable: an extension may rewrite the
  /// entry's cost and transit values here (the deviant agents of the audit
  /// experiments corrupt their wire this way).
  virtual void decorate(TableMessage::Draft entry) { (void)entry; }

  /// Extension state footprint.
  virtual std::size_t extension_words() const { return 0; }

  /// The stored advert from `sender` about `destination` was refreshed by
  /// the message currently being received (extensions track these to know
  /// which neighbor tables carry new information).
  virtual void note_refreshed(NodeId sender, NodeId destination) {
    (void)sender;
    (void)destination;
  }

  /// `sender`'s declared cost changed: every value derived from routes
  /// through it is suspect.
  virtual void note_sender_cost_change(NodeId sender) { (void)sender; }

  /// Forces every valid route to be re-advertised on the next activation
  /// (a route-refresh wave; used by the pricing restart barrier).
  void request_full_readvertisement();

  /// Route selection for one destination; returns true if it changed.
  /// The default is the canonical lowest-cost rule; policy routing
  /// (e.g. Gao-Rexford preferences) overrides this.
  virtual bool reselect_destination(NodeId destination) {
    return rib_.reselect(destination);
  }

 private:
  void mark_all_pending();
  /// The message advertising `entries_`, sized exactly before it is filled.
  TableMessage build_message();

  Rib rib_;
  UpdatePolicy policy_;
  NodeSet pending_reselect_;             ///< dests needing local recompute
  NodeSet dirty_;                        ///< dests needing (re)advertisement
  std::vector<std::uint8_t> announced_;  ///< by dest: 1 iff route advertised
  std::vector<NodeId> changed_;          ///< advertise() scratch
  std::vector<NodeId> entries_;          ///< advertise() scratch
  bool routes_changed_ = false;
  bool values_changed_ = false;
};

}  // namespace fpss::bgp

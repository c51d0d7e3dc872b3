#include "bgp/plain_agent.h"

#include "util/contract.h"

namespace fpss::bgp {

PlainBgpAgent::PlainBgpAgent(NodeId self, std::size_t node_count,
                             Cost declared_cost, UpdatePolicy policy)
    : rib_(self, node_count, declared_cost),
      policy_(policy),
      pending_reselect_(node_count),
      dirty_(node_count),
      announced_(node_count, 0) {}

void PlainBgpAgent::bootstrap() {
  // A router starts by announcing itself as a destination.
  dirty_.insert(id());
}

void PlainBgpAgent::receive(const MessageRef& msg) {
  const NodeId sender = msg->sender();
  FPSS_EXPECTS(sender != id());
  // A known sender's new declared cost re-rates every route through it. A
  // first contact re-rates nothing: no route from it is stored yet. Either
  // way the sender is noted at the message's cost once, before any entry
  // is ingested (Rib::ingest's precondition).
  if (!rib_.heard_from(sender)) {
    rib_.note_sender(sender, msg->sender_cost());
  } else if (rib_.neighbor_cost(sender) != msg->sender_cost()) {
    rib_.note_sender(sender, msg->sender_cost());
    mark_all_pending();
    note_sender_cost_change(sender);
  }
  for (std::size_t e = 0; e < msg->size(); ++e) {
    // The Rib shares the message and keeps the entry's index, not a copy.
    // Selection reads only a stored route's path, cost and node costs, so
    // a destination needs reselecting only when one of those changed.
    const NodeId destination = msg->entry(e).destination;
    if (rib_.ingest(msg, e)) pending_reselect_.insert(destination);
    note_refreshed(sender, destination);
  }
}

std::optional<TableMessage> PlainBgpAgent::advertise() {
  // Local computation: reselect every destination touched by new input.
  changed_.clear();
  for (NodeId destination : pending_reselect_.sorted()) {
    if (reselect_destination(destination)) changed_.push_back(destination);
  }
  pending_reselect_.clear();
  routes_changed_ = !changed_.empty();
  for (NodeId destination : changed_) dirty_.insert(destination);

  // Extension (pricing) computation; value changes also require re-adverts.
  values_changed_ = update_extension(changed_, dirty_);

  if (dirty_.empty()) return std::nullopt;

  // Every destination with a route, or whose route was announced and is
  // now gone (a withdrawal). Worst-case BGP of footnote 6 resends the whole
  // table on any change; incremental BGP sends the dirty destinations.
  entries_.clear();
  const auto consider = [&](NodeId j) {
    const bool valid = rib_.selected(j).valid();
    if (valid || announced_[j] != 0) entries_.push_back(j);
    announced_[j] = valid ? 1 : 0;
  };
  if (policy_ == UpdatePolicy::kFullTable) {
    for (NodeId j = 0; j < rib_.node_count(); ++j) consider(j);
  } else {
    for (NodeId j : dirty_.sorted()) consider(j);
  }
  dirty_.clear();
  if (entries_.empty()) return std::nullopt;
  return build_message();
}

void PlainBgpAgent::on_link_down(NodeId neighbor) {
  for (NodeId destination : rib_.purge_neighbor(neighbor))
    pending_reselect_.insert(destination);
}

void PlainBgpAgent::on_link_up(NodeId neighbor) {
  (void)neighbor;
  // Session establishment: resend the full table so the new peer hears
  // everything (flooded to all neighbors in this simplified model).
  for (NodeId j = 0; j < rib_.node_count(); ++j)
    if (rib_.selected(j).valid()) dirty_.insert(j);
}

void PlainBgpAgent::on_self_cost_change(Cost new_cost) {
  rib_.set_declared_cost(new_cost);
  // Our own advertised paths embed our declared cost; recompute and resend
  // everything (neighbors must re-rate every route through us).
  mark_all_pending();
  dirty_.insert(id());  // ensure a message goes out even if nothing reselects
}

StateSize PlainBgpAgent::state_size() const {
  StateSize size;
  size.selected_words = rib_.selected_words();
  size.rib_in_words = rib_.adj_rib_in_words();
  size.value_words = extension_words();
  return size;
}

void PlainBgpAgent::request_full_readvertisement() {
  for (NodeId j = 0; j < rib_.node_count(); ++j)
    if (rib_.selected(j).valid()) dirty_.insert(j);
}

void PlainBgpAgent::mark_all_pending() { pending_reselect_.insert_all(); }

TableMessage PlainBgpAgent::build_message() {
  std::size_t path_nodes = 0;
  std::size_t values = 0;
  for (NodeId j : entries_) {
    const SelectedRoute& route = rib_.selected(j);
    if (!route.valid()) continue;  // a withdrawal
    path_nodes += route.path.size();
    values += advert_values(j).size();
  }
  TableMessage msg(id(), rib_.declared_cost());
  msg.reserve(entries_.size(), path_nodes, values);
  for (NodeId j : entries_) {
    const SelectedRoute& route = rib_.selected(j);
    if (!route.valid()) {
      msg.add(RouteAdvert::withdrawal(j));
      continue;
    }
    decorate(msg.add(
        {j, route.path, route.cost, route.node_costs, advert_values(j)}));
  }
  return msg;
}

}  // namespace fpss::bgp

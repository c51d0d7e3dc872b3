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
  const NodeId sender = msg->sender;
  FPSS_EXPECTS(sender != id());
  // A changed declared cost at the sender re-rates every route through it.
  if (!rib_.heard_from(sender) ||
      rib_.neighbor_cost(sender) != msg->sender_cost) {
    const bool was_known = rib_.heard_from(sender);
    rib_.note_sender(sender, msg->sender_cost);
    mark_all_pending();
    if (was_known) note_sender_cost_change(sender);
  }
  for (const RouteAdvert& advert : msg->entries) {
    // Shares ownership of the message: the Rib keeps a pointer to the
    // entry, not a copy.
    rib_.ingest(sender, msg->sender_cost, {msg, &advert});
    pending_reselect_.insert(advert.destination);
    note_refreshed(sender, advert.destination);
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

  TableMessage msg;
  msg.sender = id();
  msg.sender_cost = rib_.declared_cost();
  if (policy_ == UpdatePolicy::kFullTable) {
    // Worst-case BGP of footnote 6: any change resends the whole table.
    msg.entries.reserve(rib_.node_count());
    for (NodeId j = 0; j < rib_.node_count(); ++j) {
      const bool valid = rib_.selected(j).valid();
      if (valid || announced_[j] != 0) {
        msg.entries.push_back(build_entry(j));  // invalid: a withdrawal
        announced_[j] = valid ? 1 : 0;
      }
    }
  } else {
    msg.entries.reserve(dirty_.size());
    for (NodeId j : dirty_.sorted()) {
      const bool valid = rib_.selected(j).valid();
      if (valid || announced_[j] != 0) {
        msg.entries.push_back(build_entry(j));
        announced_[j] = valid ? 1 : 0;
      }
    }
  }
  dirty_.clear();
  if (msg.entries.empty()) return std::nullopt;
  return msg;
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

RouteAdvert PlainBgpAgent::build_entry(NodeId destination) {
  RouteAdvert advert;
  advert.destination = destination;
  const SelectedRoute& route = rib_.selected(destination);
  if (route.valid()) {
    advert.path = route.path;
    advert.cost = route.cost;
    advert.node_costs = route.node_costs;
    decorate(advert);
  }
  return advert;
}

}  // namespace fpss::bgp

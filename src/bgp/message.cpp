#include "bgp/message.h"

#include <limits>

#include "util/contract.h"

namespace fpss::bgp {

void TableMessage::reserve(std::size_t entries, std::size_t path_nodes,
                           std::size_t values) {
  records_.reserve(records_.size() + entries);
  path_nodes_.reserve(path_nodes_.size() + path_nodes);
  node_costs_.reserve(node_costs_.size() + path_nodes);
  values_.reserve(values_.size() + values);
}

TableMessage::Draft TableMessage::add(const RouteAdvert& advert) {
  FPSS_EXPECTS(advert.node_costs.size() == advert.path.size());
  constexpr std::size_t kMaxEnd = std::numeric_limits<std::uint32_t>::max();
  FPSS_EXPECTS(path_nodes_.size() + advert.path.size() <= kMaxEnd &&
               values_.size() + advert.transit_values.size() <= kMaxEnd);
  path_nodes_.insert(path_nodes_.end(), advert.path.begin(), advert.path.end());
  node_costs_.insert(node_costs_.end(), advert.node_costs.begin(),
                     advert.node_costs.end());
  values_.insert(values_.end(), advert.transit_values.begin(),
                 advert.transit_values.end());
  records_.push_back({advert.destination,
                      static_cast<std::uint32_t>(path_nodes_.size()),
                      static_cast<std::uint32_t>(values_.size()), advert.cost});
  return {records_.back().cost,
          std::span<TransitValue>(values_).last(advert.transit_values.size())};
}

MessageSize& MessageSize::operator+=(const MessageSize& other) {
  entries += other.entries;
  path_words += other.path_words;
  cost_words += other.cost_words;
  value_words += other.value_words;
  return *this;
}

MessageSize& MessageSize::operator-=(const MessageSize& other) {
  entries -= other.entries;
  path_words -= other.path_words;
  cost_words -= other.cost_words;
  value_words -= other.value_words;
  return *this;
}

MessageSize measure(const TableMessage& msg) {
  MessageSize size;
  size.entries = msg.records_.size();
  size.path_words = msg.path_nodes_.size();
  // The sender's cost, then per entry its path cost and node costs.
  size.cost_words = 1 + msg.records_.size() + msg.node_costs_.size();
  size.value_words = 2 * msg.values_.size();
  return size;
}

}  // namespace fpss::bgp

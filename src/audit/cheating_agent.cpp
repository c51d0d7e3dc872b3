#include "audit/cheating_agent.h"

namespace fpss::audit {

const char* to_string(CheatMode mode) {
  switch (mode) {
    case CheatMode::kHonest: return "honest";
    case CheatMode::kDeflatePrices: return "deflate-prices";
    case CheatMode::kInflatePrices: return "inflate-prices";
    case CheatMode::kPadPathCost: return "pad-path-cost";
  }
  return "?";
}

CheatingAgent::CheatingAgent(NodeId self, std::size_t node_count,
                             Cost declared_cost, bgp::UpdatePolicy policy,
                             CheatMode mode)
    : PriceVectorAgent(self, node_count, declared_cost, policy),
      mode_(mode) {}

void CheatingAgent::decorate(bgp::TableMessage::Draft entry) {
  // The entry already carries the honest payload; corrupt it on the wire.
  switch (mode_) {
    case CheatMode::kHonest:
      break;
    case CheatMode::kDeflatePrices:
      for (auto& [node, value] : entry.transit_values) {
        (void)node;
        value = Cost::zero();
      }
      break;
    case CheatMode::kInflatePrices:
      for (auto& [node, value] : entry.transit_values) {
        (void)node;
        if (value.is_finite()) value = Cost{value.value() * 3 + 7};
      }
      break;
    case CheatMode::kPadPathCost:
      if (entry.cost.is_finite()) entry.cost = entry.cost + Cost{5};
      break;
  }
}

bgp::AgentFactory make_cheating_factory(NodeId cheater, CheatMode mode,
                                        bgp::UpdatePolicy policy) {
  return [cheater, mode, policy](
             NodeId self, std::size_t node_count,
             Cost declared_cost) -> std::unique_ptr<bgp::Agent> {
    return std::make_unique<CheatingAgent>(
        self, node_count, declared_cost, policy,
        self == cheater ? mode : CheatMode::kHonest);
  };
}

}  // namespace fpss::audit
